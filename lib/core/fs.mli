(** The LFS storage manager — public interface.

    The module satisfies {!Lfs_vfs.Fs_intf.S}, so workloads and
    benchmarks can drive LFS and the FFS baseline through the same code.

    {[
      let geometry = Lfs_disk.Geometry.wren_iv ~size_bytes:(300 * 1024 * 1024) in
      let clock = Lfs_disk.Clock.create () in
      let io = Lfs_disk.Io.of_geometry geometry clock Lfs_disk.Cpu_model.sun4_260 in
      match Lfs_core.Fs.format io Lfs_core.Config.default with
      | Error e -> failwith e
      | Ok () ->
      match Lfs_core.Fs.mount io with
      | Error e -> failwith e
      | Ok fs ->
          Result.get_ok (Lfs_core.Fs.create fs "/hello");
          Result.get_ok
            (Lfs_core.Fs.write fs "/hello" ~off:0 (Bytes.of_string "world"))
    ]} *)

type t = State.t

val name : string

val io : t -> Lfs_disk.Io.t

(** {1 Lifecycle} *)

val format : Lfs_disk.Io.t -> Config.t -> (unit, string) result
(** Write a fresh file system: superblock, both checkpoint regions, and a
    root directory. *)

val mount : ?config:Config.t -> Lfs_disk.Io.t -> (t, string) result
(** Mount (and recover) the file system on a formatted disk.  Structural
    parameters come from the superblock; runtime parameters (cleaning
    policy and thresholds, write-back ages, cache size, roll-forward)
    from [config] (default {!Config.default}). *)

val unmount : t -> unit
(** Checkpoint and quiesce.  The state must not be used afterwards. *)

(** {1 Namespace and data (see {!Lfs_vfs.Fs_intf.S})} *)

val create : t -> string -> (unit, Lfs_vfs.Errors.t) result
val mkdir : t -> string -> (unit, Lfs_vfs.Errors.t) result
val delete : t -> string -> (unit, Lfs_vfs.Errors.t) result
val rename : t -> string -> string -> (unit, Lfs_vfs.Errors.t) result
val link : t -> string -> string -> (unit, Lfs_vfs.Errors.t) result
val readdir : t -> string -> (string list, Lfs_vfs.Errors.t) result
val stat : t -> string -> (Lfs_vfs.Fs_intf.stat, Lfs_vfs.Errors.t) result
val exists : t -> string -> bool
val write : t -> string -> off:int -> bytes -> (unit, Lfs_vfs.Errors.t) result
val read : t -> string -> off:int -> len:int -> (bytes, Lfs_vfs.Errors.t) result
val truncate : t -> string -> size:int -> (unit, Lfs_vfs.Errors.t) result
val sync : t -> unit
val fsync : t -> string -> (unit, Lfs_vfs.Errors.t) result
val flush_caches : t -> unit

val integrity : t -> string list
(** The always-on sanitizer hook (see {!Lfs_vfs.Fs_intf.S}): runs
    {!Check.fsck} plus {!Check.usage_drift} (filtered by the usage
    array's self-reference slack of two blocks per segment) and renders
    every violation as a string.  Empty means structurally sound. *)

(** {1 LFS-specific control} *)

val checkpoint_now : t -> unit
val clean_now : ?target:int -> t -> int
(** Run the cleaner (the paper's user-initiated cleaning, §4.3.4);
    returns segments freed. *)

val set_policy : t -> Config.policy -> unit
val set_auto_clean : t -> bool -> unit

(** {1 Introspection} *)

val config : t -> Config.t
val layout : t -> Layout.t
val write_cost : t -> float
val clean_segment_count : t -> int
val segment_report : t -> (int * Seg_usage.seg_state * float) list
(** Per segment: index, state, utilization. *)

val live_bytes : t -> int
(** Total live bytes across all segments (approximate, the cleaning
    hint). *)

type space = {
  capacity_bytes : int;  (** total log payload capacity *)
  live_bytes : int;  (** referenced data and metadata *)
  clean_bytes : int;  (** immediately writable (clean segments) *)
  cleanable_bytes : int;  (** dead bytes the cleaner can reclaim *)
}

val space : t -> space
