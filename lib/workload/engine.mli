(** Concurrent multi-client engine over simulated time.

    A discrete-event loop multiplexing N closed-loop clients — each with
    its own deterministic RNG, Zipf-skewed op mix and think-time model —
    over one FS instance.  The loop always runs the client whose next
    operation is due earliest, advancing the simulated clock to that
    instant; this is the only sanctioned clock advancement in
    [lib/workload] (the [workload-clock] lint rule).

    Latency is end-to-end from the instant a client became ready to the
    instant its operation completed, so it includes queueing behind
    other clients and behind the device: synchronous write convoys show
    up in p99 exactly as the paper's §4 argues.  Pair with
    {!Lfs_disk.Io.set_scheduler} (via [config.discipline]) to measure
    what a reordering disk scheduler buys each system under load. *)

type think =
  | Constant of int  (** fixed think time, µs *)
  | Uniform of int * int  (** uniform in [\[lo, hi)], µs *)

type config = {
  clients : int;
  ops_per_client : int;
  think : think;
  seed : int;
  dirs : int;  (** directory fan-out for the shared population *)
  working_set : int;  (** target live-file population *)
  zipf_theta : float;  (** skew of read/overwrite targets *)
  read_fraction : float;
  overwrite_fraction : float;
  delete_fraction : float;  (** remainder of the mix creates files *)
  discipline : Lfs_disk.Sched.discipline option;
      (** installed on the instance's [Io] for the measured window;
          [None] runs the legacy immediate-service model *)
  max_queue : int;  (** device queue bound (see {!Lfs_disk.Io.set_scheduler}) *)
}

val default : config
(** 4 clients x 200 ops, 1-20 ms think, Zipf 0.9 over a 150-file working
    set, 40/30/10/20 read/overwrite/delete/create mix, FCFS. *)

type client_stat = {
  client : int;
  ops : int;
  mean_us : float;
  p50_us : int;
  p99_us : int;
  max_us : int;
}

type result = {
  label : string;
  discipline : string;  (** ["fcfs"], ["scan"], ["cscan"] or ["immediate"] *)
  clients : int;
  total_ops : int;
  elapsed_us : int;  (** measured window, setup excluded *)
  ops_per_sec : float;  (** aggregate throughput in simulated time *)
  mean_us : float;
  p50_us : int;
  p99_us : int;  (** aggregate latency percentiles *)
  per_client : client_stat list;
  mean_queue_depth : float;  (** mean [io.queue.depth] over the window *)
  mean_queue_wait_us : float;
  mean_positioning_us : float;
      (** mean seek + rotation time per disk request — what a reordering
          discipline minimizes *)
}

val run : ?config:config -> Lfs_vfs.Fs_intf.instance -> result
(** Run the engine: unmeasured setup (directories + half the working
    set, synced), then the measured multi-client window, then a final
    [sync] — included in [elapsed_us], the log must reach the platter —
    and {!Driver.sanitize}.  Deterministic: same config + instance kind
    ⇒ identical event sequence, metrics and final image.  Per-op
    latencies feed the registry histogram [engine.op_us], per-client
    standalone histograms, and [Client_op] bus events.
    @raise Driver.Benchmark_failure on invalid config or failed ops. *)

val to_json : result -> Lfs_obs.Json.t
(** Bench-entry encoding of the [concurrency] figure
    ({!Experiment}). *)
