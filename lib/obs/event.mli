(** Typed trace events, one constructor per interesting thing the storage
    stack does.  Events are raw facts; the simulated-time stamp is added
    by {!Bus.emit} to form a {!record}. *)

type disk_kind = Read | Write

type t =
  | Disk_request of {
      kind : disk_kind;
      sync : bool;
      sector : int;
      sectors : int;
      service_us : int;
      sequential : bool;
    }
  | Cache_hit of { owner : int; blkno : int }
  | Cache_miss of { owner : int; blkno : int }
  | Cache_evict of { owner : int; blkno : int }
  | Cache_writeback of { owner : int; blkno : int }
  | Readahead of { owner : int; start : int; blocks : int }
      (** A read-ahead prefetch of [blocks] blocks starting at block
          [start] of file [owner]. *)
  | Segment_write of { seg : int; seq : int; blocks : int; partial : bool }
  | Cleaner_pass of {
      victims : int;
      freed : int;
      bytes_read : int;
      bytes_moved : int;
    }
  | Checkpoint of { seq : int; region : int  (** 0 = A, 1 = B *) }
  | Rollforward of { seg : int; seq : int; entries : int }
  | Ffs_sync_write of { what : string; sector : int; sectors : int }
  | Fault_injected of { kind : string; sector : int; sectors : int }
      (** An injected fault from a {!Lfs_disk.Faulty} scenario: [kind] is
          one of ["crash"], ["torn_write"], ["read_error"] or
          ["bad_sector"]; [sector]/[sectors] locate the affected
          request. *)
  | Disk_queue of {
      action : [ `Enqueue | `Dispatch ];
      kind : disk_kind;
      sector : int;
      sectors : int;
      depth : int;  (** queue depth just after the action *)
      wait_us : int;
          (** dispatch only: simulated time the request waited between
              arrival and reaching the device *)
    }
      (** Request-queue activity on {!Lfs_disk.Io}, for every request
          ([`Enqueue]: a request entered its member's queue; [`Dispatch]:
          the discipline handed it to the device).  With the default
          bound of 0 each enqueue is followed by its dispatch. *)
  | Client_op of { client : int; op : string; latency_us : int }
      (** One completed operation of a concurrent-engine client: [op] is
          the operation name (["create"], ["read"], ["overwrite"],
          ["delete"]), [latency_us] the end-to-end simulated latency
          including queueing behind other clients. *)
  | Volume_op of { op : string; sector : int; sectors : int; runs : int }
      (** One logical request on a multi-member {!Lfs_disk.Volume} device:
          [op] is ["read"], ["write"] or ["write_async"],
          [sector]/[sectors] give the logical (volume-level) range and
          [runs] the number of per-member device requests it split into.
          The member-level requests themselves still appear as ordinary
          [Disk_request] events. *)
  | Span_begin of { name : string; depth : int }
  | Span_end of { name : string; depth : int; elapsed_us : int }
  | Note of { name : string; fields : (string * Json.t) list }
      (** Escape hatch for ad-hoc instrumentation. *)

type record = { at_us : int; event : t }

val name : t -> string
(** Snake-case tag, also the JSON "event" field. *)

val fields : t -> (string * Json.t) list

val to_json : record -> Json.t

val to_jsonl : ?dropped:int -> record list -> string
(** One compact JSON object per line.  When [dropped > 0] (a ring sink
    overflowed), a final [{"event":"trace_truncated","dropped":N,
    "kept":K}] trailer line marks the export as the newest [K] of
    [K + N] records. *)

val csv_header : string

val to_csv : record list -> string
(** [at_us,event,attrs] rows; attrs is the event's JSON fields as one
    RFC-4180-quoted column. *)
