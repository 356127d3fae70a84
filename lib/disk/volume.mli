(** A volume: N member {!Disk}s composed behind one sector-addressed
    interface.  Every {!Io} stack sits on a volume; a plain disk is the
    one-member case ({!Io.of_geometry}).

    The volume owns the address map ({!Map}) from the logical sector space
    the file systems see to [(member, member-sector)] pairs, and the member
    disks themselves; {!Io} owns all timing (per-member busy horizons and
    request queues) and is the only caller of the members' data path.
    Three policies:

    - {b Stripe} (RAID-0): the logical space is cut into [chunk_sectors]
      chunks dealt round-robin across members — chunk [k] lives on member
      [k mod n] at member-chunk [k / n].  Capacity is the sum of the
      members; a request crossing chunk boundaries splits into one
      contiguous run per member, serviced in parallel.  A one-member
      stripe whose chunk is the whole member is the identity map: a plain
      disk.
    - {b Mirror} (RAID-1): every member holds a full replica.  Writes fan
      out to all members; reads are served by one member of the caller's
      choice (load-balancing lives in {!Io}, which sees queue depths and
      head positions).  Capacity is one member.
    - {b Log_stripe}: the LFS-specific layout.  Identical chunked address
      map with chunk [stripe_sectors / n], but sized so one whole
      [stripe_sectors] write (a segment, when the file system aligns its
      log to [stripe_sectors]) splits into exactly one run of
      [stripe_sectors / n] contiguous sectors per member.  Consecutive
      segment writes advance every member by one chunk, so each member's
      address stream stays strictly sequential — segment bandwidth scales
      with spindle count while per-member seek counts stay at the
      single-disk level.

    All members share one metrics registry and contribute to its
    aggregate [disk.*] counters (see {!Disk.create}).  A multi-member
    volume also registers one [disk.<i>.*] family per member; a
    one-member volume registers none, since its aggregate counters
    already are the per-disk view. *)

type policy =
  | Stripe of { chunk_sectors : int }
  | Mirror
  | Log_stripe of { stripe_sectors : int }

val policy_name : policy -> string
(** ["stripe"] / ["mirror"] / ["log_stripe"] — stable labels for bench
    JSON and CLI flags (chunk sizes are separate knobs). *)

type run = {
  member : int;
  sector : int;  (** member-local start sector *)
  count : int;
  pieces : (int * int) list;
      (** scatter/gather map: [(logical offset within the request,
          sectors)] fragments in member-sector order, summing to
          [count].  A boundary-crossing request is contiguous on each
          member but interleaved in logical space, so the payload must be
          gathered (writes) or scattered (reads) piecewise.  A run whose
          [count] is the whole request covers it in order. *)
}

(** The pure address map: policy, member count, chunk and logical
    geometry.  Holds no media, so building one costs nothing. *)
module Map : sig
  type t

  val create : policy -> members:int -> Geometry.t -> t
  (** [create policy ~members g] maps [members] members of geometry [g].
      @raise Invalid_argument if [members < 1], a chunk size is
      non-positive, [Log_stripe] stripe size is not divisible by
      [members], or a member is too small to hold one chunk. *)

  val policy : t -> policy
  val members : t -> int

  val geometry : t -> Geometry.t
  (** The logical geometry the file system mounts: the member geometry
      with [sectors] replaced by the logical capacity (striped: sum of
      whole chunks across members; mirrored: one member).  Per-request
      timing never uses this — it is computed member-locally by each
      {!Disk}. *)

  val map_write : t -> sector:int -> count:int -> run list
  (** Split a logical write into per-member runs, ordered by first
      logical offset.  Mirrors return one full-range run per member.
      @raise Invalid_argument if the logical range is out of bounds. *)

  val map_read : ?prefer:int -> t -> sector:int -> count:int -> run list
  (** Same split for reads.  Mirrors return a single run on member
      [prefer] (default 0) — the caller picks the replica. *)

  val locate : t -> sector:int -> int * int
  (** [(member, member_sector)] of one logical sector (mirrors: member
      0's replica). *)

  val logical_of : t -> member:int -> msec:int -> int
  (** Inverse of {!locate} for striped policies; identity on mirrors.
      Not bounds-checked against the member's last partial chunk. *)
end

type t

val create : policy -> members:int -> Geometry.t -> t
(** [create policy ~members g] builds {!Map.create}'s map over [members]
    fresh member disks, each with geometry [g], on one shared metrics
    registry.
    @raise Invalid_argument as {!Map.create}. *)

val map : t -> Map.t
val policy : t -> policy
val members : t -> int

val geometry : t -> Geometry.t
(** {!Map.geometry} of the volume's map. *)

val member_geometry : t -> Geometry.t
val metrics : t -> Lfs_obs.Metrics.t

val member_disk : t -> int -> Disk.t
(** Member [i]'s device.
    @raise Invalid_argument if out of range. *)

(** {1 Whole-volume state} *)

val snapshot : t -> bytes
(** Member media concatenated in member order, each member copied once —
    deterministic, so crash sweeps and scenario replays stay
    byte-identical. *)

val restore : t -> bytes -> unit
(** Copy a {!snapshot} back onto the members (head state reset).
    @raise Invalid_argument on size mismatch. *)

val crashed : t -> bool
(** Whether any member is down ({!Disk.crashed}). *)

val clear_crash : t -> unit
(** Bring every member back up. *)
