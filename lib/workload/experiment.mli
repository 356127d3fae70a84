(** The experiment table: every figure of the paper's evaluation, the
    ablations and the concurrency/scale-out figures, each defined once.

    An entry has a name (plus aliases: [fig1] and [fig2] name [fig12]),
    its parameters for the two named profiles ([quick], the reduced
    sizes the test suite runs, and [paper]) as data, a runner that
    returns the rendered text and the JSON figure, and the invariants
    {!check} enforces on that figure.  [bench/main.exe] loops over
    {!all}; [lfstool profile|concurrency|scaleout] build one entry's
    parameters from their flags and call the same runner. *)

type output = {
  text : string;  (** the rendered tables and commentary *)
  figure : Lfs_obs.Json.t option;
      (** the entries list for [lfs-bench/1]; [None] for ablations that
          only render a table *)
}

type t

val all : t list
(** Every experiment, in the order a bare [bench/main.exe] runs them. *)

val name : t -> string
val title : t -> string

val names : t -> string list
(** The name followed by its aliases. *)

val find : string -> t option
(** By name or alias. *)

val run : quick:bool -> t -> output
(** Run with the [quick] or [paper] parameters. *)

(** {1 Entries lfstool drives with parameters from its flags}

    [validate] rejects parameters no run can satisfy; [run] may still
    raise {!Driver.Benchmark_failure} when the workload fails. *)

module Profile : sig
  type workload =
    | Smallfile of { files : int; file_size : int }
    | Largefile of { file_mb : int }
    | Trace  (** replay of the default synthetic trace *)

  type params = {
    workload : workload;
    disk_mb : int;
    tree : bool;  (** also render the aggregate span tree *)
  }

  val entry : t
  val validate : params -> (unit, string) result
  val run : params -> output
end

module Concurrency : sig
  type params = {
    clients : int list;  (** one engine run per client count ... *)
    ops : int;  (** ... of this many operations per client *)
    disk_mb : int;
    disciplines : Lfs_disk.Sched.discipline option list;
        (** [None] is issue-order service on bound-0 lanes *)
    per_client : bool;  (** also render each client's latencies *)
  }

  val entry : t
  val validate : params -> (unit, string) result
  val run : params -> output
end

module Scaleout : sig
  type policy = Log_stripe | Stripe | Mirror

  val policy_of_string : string -> policy option
  (** By its name: ["log_stripe"], ["stripe"] or ["mirror"]. *)

  type params = {
    member_mb : int;
    files : int;
    file_size : int;
    members : int list;  (** one run per member count and policy *)
    policies : policy list;
  }

  val entry : t
  val validate : params -> (unit, string) result
  val run : params -> output
end

(** {1 lfs-bench/1 documents} *)

val document :
  quick:bool -> (string * Lfs_obs.Json.t) list -> Lfs_obs.Json.t
(** [{"schema": "lfs-bench/1", "quick": quick, "figures": {...}}]. *)

val check : ?claims:bool -> t -> Lfs_obs.Json.t -> (int, string) result
(** Validate one figure of this experiment: a non-empty list whose
    entries all carry the numeric fields a plotting script reaches for
    and satisfy the per-entry invariants (profile attribution sums to
    the total within 1% and p50 <= p99; read-ahead hit + wasted <=
    issued; per-client ops sum to [total_ops] and p50 <= p99).  With
    [claims] (default true), also the figure-wide claims only the full
    sweep shows (concurrency: LFS degrades more gracefully than FFS,
    and C-SCAN cuts positioning wherever FCFS queues run >= 4 deep;
    scale-out: LFS log_stripe scales >= 3x from 1 to 4 members, FFS
    < 1.5x, with at most twice the single-disk seeks per member).
    [Ok n] gives the entry count; [Error] the first problem. *)

val check_document :
  Lfs_obs.Json.t -> ((string * int) list, string) result
(** {!check} every known figure of an [lfs-bench/1] document, after
    the schema marker and a non-empty ["figures"] object.  [Ok] lists
    the checked figures with their entry counts. *)
