(** A simulated sector-addressable disk.

    Stores data in memory and computes a service time for every request
    from the {!Geometry} model.  The disk itself never advances the clock;
    the {!Io} scheduler decides whether the caller waits (synchronous I/O)
    or the time is absorbed by the device queue (asynchronous I/O).

    Crash injection: [set_crash_after] arms a countdown of sectors that may
    still be persisted.  A write that exhausts the countdown is applied
    only partially (a torn write) and raises {!Crash}, simulating a power
    cut mid-transfer.  Subsequent writes also raise {!Crash} until the
    countdown is cleared, modelling a machine that is down. *)

exception Crash
(** Raised by a write when the armed crash point is reached. *)

exception Read_fault of { sector : int; transient : bool }
(** Raised by a read when an installed fault hook fails the request:
    [transient] faults may succeed on retry (media hiccup), sticky ones
    never do (bad sector).  The {!Io} scheduler owns the retry/backoff
    policy and converts budget exhaustion into its own typed error. *)

type fault_hook = {
  on_read : sector:int -> count:int -> unit;
      (** Called before a read is serviced; raise {!Read_fault} to fail
          the request. *)
  on_write : sector:int -> count:int -> int option;
      (** Called before a write is serviced.  [Some persisted] tears the
          request — only the first [persisted] sectors reach the media —
          marks the disk crashed and raises {!Crash}; [None] lets the
          write proceed. *)
}
(** Scenario-driven fault injection, installed by {!Faulty}.  The hook
    sees every request after range validation and before any service-time
    accounting, so failed attempts cost nothing at the device level. *)

type t

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable seeks : int;  (** requests that required head movement *)
  mutable busy_us : int;  (** total service time of all requests *)
}

val create : ?metrics:Lfs_obs.Metrics.t -> ?member:int -> Geometry.t -> t
(** [create geometry] makes a standalone disk with a private metrics
    registry.  A {!Volume} passes [~metrics] (the registry shared by the
    whole stack) and, on a multi-member volume, [~member:i]: the disk then
    updates both
    the shared aggregate [disk.*] counters (get-or-create on the common
    registry, so they sum over members) and its own [disk.<i>.*] family —
    the per-spindle view.  Per-disk accessors below ({!stats},
    {!busy_us}, …) always report this disk alone. *)

val geometry : t -> Geometry.t

val set_fault_hook : t -> fault_hook option -> unit
(** Install (or clear) the fault hook.  At most one hook is active. *)

val stats : t -> stats
(** This disk's counters as a fresh record per call; mutating it has no
    effect.  The volume totals are the registry's aggregate [disk.*]
    counters. *)

val busy_us : t -> int

val positioning_us : t -> int
(** Cheap accessor for [disk.positioning_us]: total time spent seeking
    and waiting for rotation across all requests (service time minus
    pure transfer).  The quantity a reordering scheduler minimizes. *)

val head_sector : t -> int
(** Current head position as a sector number — the sector following the
    last transfer.  A request starting exactly here streams with no
    positioning delay; a request scheduler uses this as the sweep
    position for SCAN/C-SCAN. *)

val last_was_streamed : t -> bool
(** Whether the most recent request started exactly where the previous
    transfer ended (an exact continuation of the access pattern).  This
    is the correct "sequential" classification for the request audit: a
    request that merely lands on the same cylinder skips the seek (so
    [disk.seeks] is unchanged) but still pays rotational latency and is
    not sequential. *)

val read_into :
  ?start_us:int -> t -> sector:int -> count:int -> bytes -> off:int -> int
(** [read_into t ~sector ~count buf ~off] copies [count] sectors into
    [buf] at [off] and returns the service time in microseconds.  A
    request the fault hook fails leaves [buf] untouched.

    [start_us] is the simulated time the request reaches the device.
    With it, a request that continues the previous transfer but arrives
    after the device went idle pays the missed-rotation cost: the platter
    kept spinning, so the head waits out the remainder of the current
    rotation.  Without it the request is treated as issued back to back
    (zero positioning on exact continuation — the historical model).
    @raise Invalid_argument if out of range or [buf] is too short. *)

val write : ?start_us:int -> ?len:int -> t -> sector:int -> bytes -> int
(** [write t ~sector data] writes the first [len] bytes of [data]
    (default: all of it; a positive multiple of the sector size) and
    returns the service time.  [start_us] as in {!read_into}.
    @raise Crash if a crash point is reached (the write may be torn).
    @raise Invalid_argument if out of range or misaligned. *)

val set_crash_after : t -> sectors:int -> unit
(** Arm a crash after [sectors] more sectors have been persisted. *)

val clear_crash : t -> unit
(** Disarm the crash and bring the "machine" back up (after this, reads
    and writes succeed again; the torn state remains on disk). *)

val crashed : t -> bool

val snapshot_into : t -> bytes -> off:int -> unit
(** Copy the entire media into [buf] at [off] — the one copy a
    {!Volume.snapshot} makes of each member.
    @raise Invalid_argument if [buf] is too short. *)

val restore_from : t -> bytes -> off:int -> unit
(** Overwrite the media from [media] starting at [off] (one media-sized
    copy).  Head position is reset.
    @raise Invalid_argument if [media] is too short. *)
