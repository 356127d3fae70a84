(** Latency-attribution profiler: a span-tree aggregator over {!Bus}.

    {!attach} subscribes to a bus and folds the [Span_begin]/[Span_end]
    stream into an aggregate tree keyed by span-name path: per node a
    completion count, inclusive and exclusive simulated time, and a
    log-scale histogram of inclusive elapsed times.  {!report} turns the
    tree into per-operation latency statistics (p50/p95/p99 in simulated
    µs) and an exclusive-time attribution that splits each operation's
    total across cache/CPU, disk service, cleaner interference and
    checkpoint work.  Because exclusive times partition inclusive time,
    the four attribution columns sum exactly to the operation's total.

    File systems mark their top-level operations with {!with_op}; the
    op-span names are defined here (and only here) so every span name
    has a single registration site. *)

type op =
  [ `Create
  | `Mkdir
  | `Delete
  | `Rename
  | `Link
  | `Read
  | `Write
  | `Truncate
  | `Stat
  | `Readdir
  | `Sync
  | `Fsync ]

val op_name : op -> string
(** The span name for an operation, e.g. [`Read] -> ["op_read"]. *)

val with_op : Bus.t -> op -> (unit -> 'a) -> 'a
(** Run [f] inside the operation's span.  Free (no span) when the bus is
    quiet. *)

(** {1 Aggregation} *)

type t

val attach : Bus.t -> t
(** Subscribe an aggregator to the bus.  Span ends whose begins predate
    the attach are ignored, so attaching mid-run is safe. *)

val detach : t -> unit

(** {1 Reports} *)

type op_stat = {
  op : string;  (** operation name without the [op_] prefix *)
  count : int;
  total_us : int;  (** summed inclusive time *)
  mean_us : float;
  p50_us : int;
  p95_us : int;
  p99_us : int;
  cache_us : int;  (** exclusive time not otherwise attributed: cache + CPU *)
  disk_us : int;  (** time inside [io_*] spans *)
  cleaner_us : int;  (** time inside [cleaner_pass] spans (sticky) *)
  checkpoint_us : int;  (** time inside [checkpoint]/[roll_forward] (sticky) *)
}

type tree = {
  t_name : string;
  t_count : int;
  t_incl_us : int;
  t_excl_us : int;
  t_children : tree list;  (** sorted by inclusive time, descending *)
}

type report = { ops : op_stat list; spans : tree list }

val report : t -> report
(** [ops] covers the [op_*] top-level spans in a fixed operation order;
    [spans] is the full aggregate tree (including non-op roots such as
    mount-time roll-forward). *)

val render_ops : report -> string
(** The attribution table: one row per operation; [cache_us] + [disk_us]
    + [cleaner_us] + [checkpoint_us] = [total_us]. *)

val render_tree : report -> string

val op_fields : op_stat -> (string * Json.t) list
(** One row of the attribution table, as the fields of a bench figure
    entry. *)
