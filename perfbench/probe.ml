(* The instrumented file system the workloads drive: Lfs_core.Fs behind
   the shared Fs_intf.S signature, so the benchmark's own loops and
   Lfs_workload.Engine run through the same probe.

   Inside a measured window every call is timed on both clocks —
   simulated microseconds from the I/O stack's clock, host nanoseconds
   and allocated words from Host — and recorded per operation kind.
   The benchmark's own bookkeeping (shadow updates, sample buffers,
   registry snapshots) runs between the timed intervals, so the host
   numbers are the program's alone.

   Every successful write is applied to a shadow copy of the file, and
   every successful read is compared with it; a mismatch, or a read
   error on a file the shadow holds, is a correctness problem that fails
   the run.  Failed calls are counted, never raised.  The shadow's
   contents live in Bigarrays, outside the OCaml heap, so the heap peak
   the benchmark reports is the program's.

   On Engine's window (mixed-clients) the end-to-end latency of an
   operation is Engine's own: from when its client became ready to when
   the operation completed, the wait behind other clients included.
   Engine reports it on the bus as a Client_op event after each
   operation.  The probe subscribes to the bus only between timed calls,
   so inside them the bus stays quiet and costs what it costs untraced. *)

module Fs = Lfs_core.Fs
module Io = Lfs_disk.Io
module Metrics = Lfs_obs.Metrics
module Errors = Lfs_vfs.Errors
module Fs_intf = Lfs_vfs.Fs_intf
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Vec = Stats.Vec
module A1 = Bigarray.Array1

type contents = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t

type op = Create | Read | Write | Delete | Sync | Other

let op_index = function
  | Create -> 0
  | Read -> 1
  | Write -> 2
  | Delete -> 3
  | Sync -> 4
  | Other -> 5

(* The operation kinds reported per layer, in op_index order. *)
let reported = [ ("create", Create); ("read", Read); ("write", Write);
                 ("delete", Delete); ("sync", Sync) ]

type samples = { sim_us : Vec.t; host_ns : Vec.t; words : Vec.t }

type t = {
  mutable fs : Fs.t;
  io : Io.t;
  config : Lfs_core.Config.t;
  shadow : (string, contents) Hashtbl.t;
  samples : samples array;
  e2e_read : Vec.t;  (** simulated latency of each operation, as the *)
  e2e_write : Vec.t;  (** end-to-end metrics count them *)
  mutable grouped : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable user_bytes : int;  (** bytes passed to [write] in windows *)
  mutable host_ns : float;  (** summed over timed calls *)
  mutable words : float;
  mutable problems : string list;  (** newest first, capped *)
  mutable nproblems : int;
  (* window state *)
  mutable engine_window : bool;
      (** the window is open exactly while a request scheduler is
          installed — how Engine marks its measured window — and the
          end-to-end latencies are Engine's per-operation ones *)
  mutable listener : Bus.subscription option;
  mutable is_open : bool;
  mutable first_open_ns : float;  (** host clock at the first opening *)
  mutable opened_ns : float;
  mutable wall_ns : float;  (** host time with the window open *)
  mutable opened_sim : int;
  mutable opened_snap : Metrics.snapshot;
  mutable opened_busy : int array;
  mutable sim_window_us : int;
  mutable opened_gc : int * int;
  mutable gc_minor : int;  (** collections during windows *)
  mutable gc_major : int;
  counters : (string, int) Hashtbl.t;  (** summed window deltas *)
  hists : (string, int * int) Hashtbl.t;  (** summed (count, sum) *)
  busy_us : int array;  (** per member *)
  mutable tracer : Tracer.t option;
}

let create ~config fs =
  let io = Fs.io fs in
  {
    fs;
    io;
    config;
    shadow = Hashtbl.create 4096;
    samples =
      Array.init 6 (fun _ ->
          { sim_us = Vec.create (); host_ns = Vec.create (); words = Vec.create () });
    e2e_read = Vec.create ();
    e2e_write = Vec.create ();
    grouped = false;
    attempted = 0;
    failed = 0;
    user_bytes = 0;
    host_ns = 0.0;
    words = 0.0;
    problems = [];
    nproblems = 0;
    engine_window = false;
    listener = None;
    is_open = false;
    first_open_ns = nan;
    opened_ns = 0.0;
    wall_ns = 0.0;
    opened_sim = 0;
    opened_snap = [];
    opened_busy = [||];
    sim_window_us = 0;
    opened_gc = (0, 0);
    gc_minor = 0;
    gc_major = 0;
    counters = Hashtbl.create 64;
    hists = Hashtbl.create 16;
    busy_us = Array.make (Io.members io) 0;
    tracer = None;
  }

let problem p fmt =
  Printf.ksprintf
    (fun s ->
      p.nproblems <- p.nproblems + 1;
      if p.nproblems <= 10 then p.problems <- s :: p.problems)
    fmt

let gc_collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let member_busy io = Array.init (Io.members io) (fun i -> (Io.member_stats io i).Lfs_disk.Disk.busy_us)

(* {1 Engine's per-operation latencies} *)

let on_event p (r : Event.record) =
  match r.Event.event with
  | Event.Client_op { op = "read"; latency_us; _ } -> Vec.push p.e2e_read latency_us
  | Event.Client_op { latency_us; _ } -> Vec.push p.e2e_write latency_us
  | _ -> ()

let listen p =
  if p.engine_window && p.is_open && p.listener = None then
    p.listener <- Some (Bus.subscribe (Io.bus p.io) (on_event p))

let quiet p =
  Option.iter (Bus.unsubscribe (Io.bus p.io)) p.listener;
  p.listener <- None

(* {1 Measured windows} *)

let open_window p =
  if not p.is_open then begin
    p.opened_ns <- Host.now_ns ();
    if Float.is_nan p.first_open_ns then p.first_open_ns <- p.opened_ns;
    p.opened_sim <- Io.now_us p.io;
    p.opened_snap <- Metrics.snapshot (Io.metrics p.io);
    p.opened_busy <- member_busy p.io;
    p.opened_gc <- gc_collections ();
    Option.iter (fun tr -> Tracer.start tr) p.tracer;
    p.is_open <- true
  end

let close_window p =
  if p.is_open then begin
    quiet p;
    p.is_open <- false;
    Option.iter Tracer.stop p.tracer;
    p.wall_ns <- p.wall_ns +. (Host.now_ns () -. p.opened_ns);
    p.sim_window_us <- p.sim_window_us + (Io.now_us p.io - p.opened_sim);
    let minor, major = gc_collections () in
    p.gc_minor <- p.gc_minor + minor - fst p.opened_gc;
    p.gc_major <- p.gc_major + major - snd p.opened_gc;
    let delta =
      Metrics.diff ~before:p.opened_snap ~after:(Metrics.snapshot (Io.metrics p.io))
    in
    List.iter
      (fun (name, v) ->
        match v with
        | Metrics.Counter n ->
            let old = Option.value ~default:0 (Hashtbl.find_opt p.counters name) in
            Hashtbl.replace p.counters name (old + n)
        | Metrics.Histogram h ->
            let c, s = Option.value ~default:(0, 0) (Hashtbl.find_opt p.hists name) in
            Hashtbl.replace p.hists name (c + h.Metrics.count, s + h.Metrics.sum)
        | Metrics.Gauge _ -> ())
      delta;
    Array.iteri
      (fun i b -> p.busy_us.(i) <- p.busy_us.(i) + b - p.opened_busy.(i))
      (member_busy p.io)
  end

let follow p =
  if p.engine_window then
    if Io.scheduler p.io <> None then open_window p else close_window p

(* Run [f] as one measured phase of the window. *)
let phase p f =
  open_window p;
  f ();
  close_window p

let counter p name = Option.value ~default:0 (Hashtbl.find_opt p.counters name)

let hist_mean p name =
  match Hashtbl.find_opt p.hists name with
  | Some (c, s) when c > 0 -> float_of_int s /. float_of_int c
  | _ -> 0.0

(* {1 Timed calls} *)

let record p op ~sim_us (h : Host.span) ~ok =
  let s = p.samples.(op_index op) in
  (if not (p.grouped || p.engine_window) then
     match op with
     | Read -> Vec.push p.e2e_read sim_us
     | Create | Write | Delete | Sync -> Vec.push p.e2e_write sim_us
     | Other -> ());
  Vec.push s.sim_us sim_us;
  Vec.push s.host_ns (int_of_float h.Host.ns);
  Vec.push s.words (int_of_float h.Host.words);
  p.attempted <- p.attempted + 1;
  if not ok then p.failed <- p.failed + 1;
  p.host_ns <- p.host_ns +. h.Host.ns;
  p.words <- p.words +. h.Host.words

let timed p op ~ok f =
  follow p;
  if not p.is_open then f ()
  else begin
    quiet p;
    let s0 = Io.now_us p.io in
    let r, h = Host.span f in
    record p op ~sim_us:(Io.now_us p.io - s0) h ~ok:(ok r);
    listen p;
    r
  end

(* Count the calls [f] makes as one end-to-end mutating operation (a
   file's create and first write); each call still counts per layer. *)
let as_one_write p f =
  let s0 = Io.now_us p.io in
  p.grouped <- true;
  f ();
  p.grouped <- false;
  if p.is_open then Vec.push p.e2e_write (Io.now_us p.io - s0)

let is_ok = function Ok _ -> true | Error _ -> false
let call p op f = timed p op ~ok:is_ok f
let call_unit p op f = timed p op ~ok:(fun () -> true) f

(* An explicit checkpoint (Fs.checkpoint_now) counts as a sync; ENOSPC
   is a failed call. *)
let checkpoint p =
  ignore
    (timed p Sync ~ok:Fun.id (fun () ->
         match Fs.checkpoint_now p.fs with
         | () -> true
         | exception Errors.Error _ -> false)
      : bool)

(* {1 The shadow} *)

let empty : contents = A1.create Bigarray.char Bigarray.c_layout 0

(* [old] with [data] written at [off]; in place when the length stays. *)
let apply_write (old : contents) ~off data =
  let len = max (A1.dim old) (off + Bytes.length data) in
  let b =
    if len = A1.dim old then old
    else begin
      let b = A1.create Bigarray.char Bigarray.c_layout len in
      A1.fill b '\000';
      A1.blit old (A1.sub b 0 (A1.dim old));
      b
    end
  in
  for i = 0 to Bytes.length data - 1 do
    A1.unsafe_set b (off + i) (Bytes.unsafe_get data i)
  done;
  b

(* Whether [data] is what a read of [len] bytes at [off] should return. *)
let matches (expected : contents) ~off ~len data =
  let n = max 0 (min len (A1.dim expected - off)) in
  let rec same i =
    i = n || (Bytes.unsafe_get data i = A1.unsafe_get expected (off + i) && same (i + 1))
  in
  Bytes.length data = n && same 0

let check_read p path ~off ~len = function
  | Ok data -> (
      match Hashtbl.find_opt p.shadow path with
      | None -> problem p "read %s: returned data for a file never written" path
      | Some expected ->
          if not (matches expected ~off ~len data) then
            problem p "read %s: %d bytes at %d differ from what was written"
              path (Bytes.length data) off)
  | Error e ->
      if Hashtbl.mem p.shadow path then
        problem p "read %s: %s, but the file was written" path
          (Errors.to_string e)

(* Read every shadowed file back outside the window and compare. *)
let verify_all p =
  Hashtbl.iter
    (fun path expected ->
      check_read p path ~off:0 ~len:(A1.dim expected)
        (Fs.read p.fs path ~off:0 ~len:(A1.dim expected + 1)))
    p.shadow

let check_integrity p =
  List.iter (fun issue -> problem p "integrity: %s" issue) (Fs.integrity p.fs)

(* {1 Crash and recovery} *)

type recovery = {
  mount_sim_us : int;
  mount_host_ns : float;
  rolled : int;  (** segments replayed by roll-forward *)
  clean_before : int;  (** clean segments at the crash *)
  clean_after : int;  (** ... and after recovery *)
}

(* The remount only serves reads: with cleaning and timed checkpoints
   off, the read-back reads and nothing else.  (On a log whose recovery
   leaves no clean segment, either would stall every later operation;
   [clean_after] below makes that visible.) *)
let verification_config config =
  { config with Lfs_core.Config.auto_clean = false; checkpoint_interval_us = max_int }

(* Drop the mounted state without unmounting — a crash after the last
   sync — and mount again on the same media. *)
let crash_and_remount p =
  close_window p;
  let clean_before = Fs.clean_segment_count p.fs in
  Option.iter (fun tr -> Tracer.start ~profile:false tr) p.tracer;
  let s0 = Io.now_us p.io in
  let r, h =
    Host.span (fun () -> Fs.mount ~config:(verification_config p.config) p.io)
  in
  let mount_sim_us = Io.now_us p.io - s0 in
  Option.iter Tracer.stop p.tracer;
  match r with
  | Error e -> Lfs_workload.Driver.fail "remount after crash: %s" e
  | Ok fs ->
      p.fs <- fs;
      let rolled =
        Option.value ~default:0
          (Metrics.counter_value
             (Metrics.snapshot (Io.metrics p.io))
             "lfs.rollforward_segments")
      in
      {
        mount_sim_us;
        mount_host_ns = h.Host.ns;
        rolled;
        clean_before;
        clean_after = Fs.clean_segment_count fs;
      }

(* {1 The Fs_intf.S face} *)

module M = struct
  type nonrec t = t

  let name = "LFS"
  let io p = p.io

  let create p path =
    let r = call p Create (fun () -> Fs.create p.fs path) in
    if is_ok r then Hashtbl.replace p.shadow path empty;
    r

  let mkdir p path = call p Other (fun () -> Fs.mkdir p.fs path)

  let delete p path =
    let r = call p Delete (fun () -> Fs.delete p.fs path) in
    if is_ok r then Hashtbl.remove p.shadow path;
    r

  (* No workload renames, links or truncates; the shadow does not model
     them. *)
  let rename _ _ _ = invalid_arg "Probe.rename: not modelled"
  let link _ _ _ = invalid_arg "Probe.link: not modelled"
  let readdir p path = call p Other (fun () -> Fs.readdir p.fs path)
  let stat p path = call p Other (fun () -> Fs.stat p.fs path)
  let exists p path = Fs.exists p.fs path

  let write p path ~off data =
    let r = call p Write (fun () -> Fs.write p.fs path ~off data) in
    if is_ok r then begin
      if p.is_open then p.user_bytes <- p.user_bytes + Bytes.length data;
      let old = Option.value ~default:empty (Hashtbl.find_opt p.shadow path) in
      Hashtbl.replace p.shadow path (apply_write old ~off data)
    end;
    r

  let read p path ~off ~len =
    let r = call p Read (fun () -> Fs.read p.fs path ~off ~len) in
    check_read p path ~off ~len r;
    r

  let truncate _ _ ~size:_ = invalid_arg "Probe.truncate: not modelled"
  let sync p = call_unit p Sync (fun () -> Fs.sync p.fs)
  let fsync p path = call p Other (fun () -> Fs.fsync p.fs path)

  let flush_caches p =
    follow p;
    Fs.flush_caches p.fs

  let integrity p =
    follow p;
    Fs.integrity p.fs
end

let instance p = Fs_intf.Instance ((module M), p)
