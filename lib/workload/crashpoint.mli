(** Exhaustive crash-point recovery sweeps.

    The harness runs a workload once on a fault-free stack to count its
    write-request boundaries, then for each boundary [k] replays it on a
    fresh stack whose disk loses power at exactly the [k]-th write
    (optionally tearing that write to a seeded sector prefix), remounts
    — LFS through checkpoint + roll-forward, FFS through its fsck-style
    {!Lfs_ffs.Fs.repair} full-disk scan — and asserts the recovered
    state against a durable model derived from the op stream: data made
    durable by the last completed [sync] must survive bit-for-bit,
    deletes synced before the crash must stay deleted, and anything in
    between may be lost but never corrupt (§4.4 of the paper: crash
    recovery loses only the tail of the log).

    Two further scenarios exercise the remaining fault kinds:
    {!read_fault_run} (transient read errors absorbed by the {!Lfs_disk.Io}
    retry/backoff path) and {!bad_sector_run} (a sticky bad sector over
    LFS checkpoint region A, forcing recovery onto region B). *)

type op =
  | Mkdir of string
  | Create of string
  | Write of { path : string; seed : int; len : int }
      (** Contents are [Driver.content ~seed len]; each path is written
          at most once so synced content is unambiguous. *)
  | Delete of string
  | Sync

val to_op : op -> Op.t
(** The op this crash-sweep op runs as. *)

type system = [ `Lfs | `Ffs ]

val system_name : system -> string

val smallfile : ?files:int -> ?size:int -> unit -> op list
(** A small smallfile-style workload: two directories, [files] files
    created and written across interleaved syncs, one synced delete. *)

(** {1 Crash-point sweep} *)

type point = {
  boundary : int;  (** the write request the disk died on *)
  crashed : bool;  (** whether the workload actually reached it *)
  recovery_us : int;  (** simulated time spent remounting *)
  recovery_reads : int;  (** disk read requests spent remounting *)
}

type outcome = {
  label : string;
  torn : bool;
  total_writes : int;  (** write boundaries in the fault-free run *)
  boundaries_tested : int;
  faults : int;  (** faults injected across all replays *)
  violations : string list;  (** empty means recovery held everywhere *)
  points : point list;
}

val sweep :
  ?volume:Lfs_disk.Volume.policy * int ->
  ?torn:bool ->
  ?max_boundaries:int ->
  ?seed:int ->
  system ->
  op list ->
  outcome
(** Exhaustive when the workload issues at most [max_boundaries]
    (default 48) writes; above that, a seeded sample of boundaries.
    [torn] tears the crashing write instead of dropping it — meaningful
    for LFS, whose log never overwrites live data; FFS update-in-place
    can legitimately lose durable directory entries to a torn overwrite
    (that being fsck's classic lost+found case), so torn sweeps assert
    only on LFS.

    [volume] runs every stack on a volume of [(policy, members)] 16 MB
    member disks instead of a single disk ({!Io.snapshot_media} keeps
    replays deterministic on volumes).
    @raise Invalid_argument for mirror volumes: a mid-fan-out crash
    leaves replicas divergent, making later load-balanced reads
    semantically unspecified — only striped policies can be swept. *)

(** {1 Read-fault scenarios} *)

type read_fault_outcome = {
  retries : int;  (** [io.retries] after the run *)
  backoff_us : int;  (** [io.backoff_us] after the run *)
  read_errors : int;  (** transient faults injected *)
  rf_violations : string list;
}

val read_fault_run :
  ?volume:Lfs_disk.Volume.policy * int ->
  ?rate:float ->
  ?burst:int ->
  ?seed:int ->
  system ->
  op list ->
  read_fault_outcome
(** Run the workload, drop caches, read every file back and verify
    integrity while every read may transiently fail: all faults must be
    absorbed by retry/backoff ([burst] must stay below the retry
    budget).  A read that still fails, and a read-back or integrity
    failure, is a violation.
    @raise Driver.Benchmark_failure when the file system refuses an op
    of [ops]: the list cannot run, as {!sweep}'s probe reports. *)

type bad_sector_outcome = {
  bad_sector_reads : int;
  bs_violations : string list;
}

val bad_sector_run : ?seed:int -> unit -> bad_sector_outcome
(** Sync a workload, mark the first sector of LFS checkpoint region A
    sticky-bad, remount: recovery must fall back to region B and the
    full durable state must survive. *)
