(** Driving any file system through {!Lfs_vfs.Fs_intf.instance}.

    The benchmark workloads are written once against these helpers and
    run unchanged on LFS and FFS.  All helpers fail loudly — a benchmark
    that cannot perform its operations is a bug, not a result. *)

exception Benchmark_failure of string

val fail : ('a, unit, string, 'b) format4 -> 'a
val ok : string -> ('a, Lfs_vfs.Errors.t) result -> 'a

val io : Lfs_vfs.Fs_intf.instance -> Lfs_disk.Io.t
val label : Lfs_vfs.Fs_intf.instance -> string

val create : Lfs_vfs.Fs_intf.instance -> string -> unit
val mkdir : Lfs_vfs.Fs_intf.instance -> string -> unit
val delete : Lfs_vfs.Fs_intf.instance -> string -> unit
val write : Lfs_vfs.Fs_intf.instance -> string -> off:int -> bytes -> unit
val read : Lfs_vfs.Fs_intf.instance -> string -> off:int -> len:int -> bytes
val stat : Lfs_vfs.Fs_intf.instance -> string -> Lfs_vfs.Fs_intf.stat
val readdir : Lfs_vfs.Fs_intf.instance -> string -> string list
val exists : Lfs_vfs.Fs_intf.instance -> string -> bool
val sync : Lfs_vfs.Fs_intf.instance -> unit
val flush_caches : Lfs_vfs.Fs_intf.instance -> unit

val integrity : Lfs_vfs.Fs_intf.instance -> string list
(** The system's structural self-check (see {!Lfs_vfs.Fs_intf.S}). *)

val sanitize : Lfs_vfs.Fs_intf.instance -> unit
(** The always-on sanitizer: sync, then run {!integrity}, raising
    {!Benchmark_failure} on any issue.  Every workload runner calls
    this after taking its measurements, so a run that corrupted the
    file system cannot report a result. *)

val now_us : Lfs_vfs.Fs_intf.instance -> int

val metrics : Lfs_vfs.Fs_intf.instance -> Lfs_obs.Metrics.t
(** The instance's I/O-stack registry. *)

val bus : Lfs_vfs.Fs_intf.instance -> Lfs_obs.Bus.t
(** The instance's trace bus. *)

val counter : Lfs_vfs.Fs_intf.instance -> string -> int
(** Current value of a registry counter, 0 if it was never registered. *)

val timed : Lfs_vfs.Fs_intf.instance -> (unit -> unit) -> int
(** Simulated microseconds consumed by the thunk. *)

val observed :
  Lfs_vfs.Fs_intf.instance ->
  (unit -> unit) ->
  int * Lfs_obs.Metrics.snapshot
(** [timed], plus the registry delta the thunk caused. *)

val content : seed:int -> int -> bytes
(** Deterministic pseudo-random file contents. *)
