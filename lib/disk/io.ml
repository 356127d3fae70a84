module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Metrics = Lfs_obs.Metrics

exception Read_failed of { sector : int; attempts : int }

(* Every member of the volume ("lane") has its own busy horizon and
   request queue — a plain disk is simply the one-lane case, running the
   exact same code paths.  Every request passes through the lane's queue;
   with the default bound of 0 it is dispatched inside the call that
   enqueued it, which is issue-order service. *)
type lane = {
  l_member : int;
  l_disk : Disk.t;
  mutable l_busy_until_us : int;
  mutable l_sched : Sched.t;
}

type t = {
  volume : Volume.t;
  lanes : lane array;
  clock : Clock.t;
  cpu : Cpu_model.t;
  bus : Bus.t;
  metrics : Metrics.t;
  h_read_us : Metrics.histogram;
  h_write_us : Metrics.histogram;
  h_request_sectors : Metrics.histogram;
  h_queue_depth : Metrics.histogram;
  h_queue_wait : Metrics.histogram;
  c_clustered_reads : Metrics.counter;
  c_clustered_read_blocks : Metrics.counter;
  c_clustered_writes : Metrics.counter;
  c_clustered_write_blocks : Metrics.counter;
  c_retries : Metrics.counter;
  c_backoff_us : Metrics.counter;
  c_degraded_reads : Metrics.counter;
  max_backlog_us : int;
  read_attempts : int;
  retry_backoff_us : int;
  mutable max_queue : int;
      (* pending requests a lane may hold past an async write; 0 until a
         discipline is installed *)
}

let of_volume ?(max_backlog_us = 2_000_000) ?(read_attempts = 4)
    ?(retry_backoff_us = 1_000) volume clock cpu =
  if max_backlog_us < 0 then invalid_arg "Io.of_volume: negative backlog";
  if read_attempts < 1 then invalid_arg "Io.of_volume: read_attempts < 1";
  if retry_backoff_us < 0 then invalid_arg "Io.of_volume: negative backoff";
  let metrics = Volume.metrics volume in
  {
    volume;
    lanes =
      Array.init (Volume.members volume) (fun i ->
          {
            l_member = i;
            l_disk = Volume.member_disk volume i;
            l_busy_until_us = 0;
            l_sched = Sched.create Sched.Fcfs;
          });
    clock;
    cpu;
    bus = Bus.create ~now:(fun () -> Clock.now_us clock) ();
    metrics;
    h_read_us = Metrics.histogram metrics "io.read_us";
    h_write_us = Metrics.histogram metrics "io.write_us";
    h_request_sectors = Metrics.histogram metrics "io.request_sectors";
    h_queue_depth = Metrics.histogram metrics "io.queue.depth";
    h_queue_wait = Metrics.histogram metrics "io.queue.wait_us";
    c_clustered_reads = Metrics.counter metrics "io.clustered_reads";
    c_clustered_read_blocks = Metrics.counter metrics "io.clustered_read_blocks";
    c_clustered_writes = Metrics.counter metrics "io.clustered_writes";
    c_clustered_write_blocks =
      Metrics.counter metrics "io.clustered_write_blocks";
    c_retries = Metrics.counter metrics "io.retries";
    c_backoff_us = Metrics.counter metrics "io.backoff_us";
    c_degraded_reads = Metrics.counter metrics "io.degraded_reads";
    max_backlog_us;
    read_attempts;
    retry_backoff_us;
    max_queue = 0;
  }

(* A plain disk: one member striped in a single chunk, the identity map. *)
let of_geometry ?max_backlog_us ?read_attempts ?retry_backoff_us geometry clock
    cpu =
  of_volume ?max_backlog_us ?read_attempts ?retry_backoff_us
    (Volume.create
       (Volume.Stripe { chunk_sectors = geometry.Geometry.sectors })
       ~members:1 geometry)
    clock cpu

let volume t = t.volume
let members t = Array.length t.lanes
let member_disk t i = Volume.member_disk t.volume i
let geometry t = Volume.geometry t.volume

let clock t = t.clock
let cpu t = t.cpu
let bus t = t.bus
let metrics t = t.metrics
let now_us t = Clock.now_us t.clock

let charge_cpu t us = Clock.advance_us t.clock us
let charge_syscall t = charge_cpu t t.cpu.Cpu_model.syscall_us
let charge_copy t ~bytes = charge_cpu t (Cpu_model.copy_us t.cpu ~bytes)
let charge_lookup t = charge_cpu t t.cpu.Cpu_model.lookup_us

let record t ~kind ~sync ~sector ~sectors ~service_us ~sequential =
  Metrics.observe
    (match kind with `Read -> t.h_read_us | `Write -> t.h_write_us)
    service_us;
  Metrics.observe t.h_request_sectors sectors;
  if Bus.enabled t.bus then
    Bus.emit t.bus
      (Event.Disk_request
         {
           kind = (match kind with `Read -> Event.Read | `Write -> Event.Write);
           sync;
           sector;
           sectors;
           service_us;
           sequential;
         })

let sector_size t = (geometry t).Geometry.sector_size

let max_busy t =
  Array.fold_left (fun acc l -> max acc l.l_busy_until_us) 0 t.lanes

let emit_queue t ~action ~kind ~sector ~sectors ~depth ~wait_us =
  if Bus.enabled t.bus then
    Bus.emit t.bus
      (Event.Disk_queue
         {
           action;
           kind = (match kind with `Read -> Event.Read | `Write -> Event.Write);
           sector;
           sectors;
           depth;
           wait_us;
         })

(* A one-member volume's single run already is the [Disk_request]: only
   multi-member volumes publish the logical op. *)
let emit_volume_op t ~op ~sector ~sectors ~runs =
  if members t > 1 && Bus.enabled t.bus then
    Bus.emit t.bus (Event.Volume_op { op; sector; sectors; runs })

(* Read retry loop.  A read starts when the member is free and the
   request has arrived.  A failed attempt costs only the retry backoff:
   the fault hook rejects the request before the device computes a
   service time, so the head never moves and the clock advances by the
   (exponentially growing) wait between attempts.  A retry starts no
   earlier than the end of its backoff. *)
let read_with_retries t lane ~arrival_us ~sector ~count ~sync buf =
  let rec attempt n ~not_before =
    let start_us = max (max lane.l_busy_until_us arrival_us) not_before in
    match Disk.read_into ~start_us lane.l_disk ~sector ~count buf ~off:0 with
    | service_us ->
        let sequential = Disk.last_was_streamed lane.l_disk in
        record t ~kind:`Read ~sync ~sector ~sectors:count ~service_us
          ~sequential;
        lane.l_busy_until_us <- start_us + service_us
    | exception Disk.Read_fault _ ->
        if n >= t.read_attempts then raise (Read_failed { sector; attempts = n })
        else begin
          Metrics.incr t.c_retries;
          let backoff = t.retry_backoff_us * (1 lsl (n - 1)) in
          Metrics.add t.c_backoff_us backoff;
          Clock.advance_us t.clock backoff;
          attempt (n + 1) ~not_before:(now_us t)
        end
  in
  attempt 1 ~not_before:0

(* Service one queued request.  The member worked through its queue in
   the background: the request starts when the member is free and the
   request has arrived — time that may already lie in the past by the
   moment the dispatch order is decided (lazy dispatch still charges the
   device as if it ran continuously).  A write's payload may be longer
   than the request: only its first [count] sectors are written.  A
   read lands in the buffer its entry carries. *)
let dispatch_entry t lane (e : Sched.entry) =
  let arrival_us = e.Sched.arrival_us in
  let start = max lane.l_busy_until_us arrival_us in
  let wait_us = start - arrival_us in
  let depth = Sched.length lane.l_sched in
  (match e.Sched.kind with
  | `Write ->
      let service_us =
        Disk.write ~start_us:start
          ~len:(e.Sched.count * sector_size t)
          lane.l_disk ~sector:e.Sched.sector (Option.get e.Sched.data)
      in
      record t ~kind:`Write ~sync:e.Sched.sync ~sector:e.Sched.sector
        ~sectors:e.Sched.count ~service_us
        ~sequential:(Disk.last_was_streamed lane.l_disk);
      lane.l_busy_until_us <- start + service_us
  | `Read ->
      read_with_retries t lane ~arrival_us ~sector:e.Sched.sector
        ~count:e.Sched.count ~sync:e.Sched.sync (Option.get e.Sched.data));
  Metrics.observe t.h_queue_wait wait_us;
  emit_queue t ~action:`Dispatch ~kind:e.Sched.kind ~sector:e.Sched.sector
    ~sectors:e.Sched.count ~depth ~wait_us

(* The oldest entry is always eligible, so a non-empty queue always
   dispatches: no livelock. *)
let dispatch_next t lane =
  match Sched.select lane.l_sched ~head:(Disk.head_sector lane.l_disk) with
  | None -> None
  | Some e ->
      dispatch_entry t lane e;
      Some e

let dispatch_lane t lane =
  let rec go () = if Option.is_some (dispatch_next t lane) then go () in
  go ()

let dispatch_all t = Array.iter (dispatch_lane t) t.lanes

(* Dispatch in discipline order until the entry [id] has been serviced.
   Requests the discipline ranks ahead of the target are serviced first
   — this is the convoy a synchronous caller pays behind a deep queue. *)
let dispatch_until t lane ~id =
  let rec go () =
    match dispatch_next t lane with
    | None -> ()
    | Some e -> if e.Sched.id <> id then go ()
  in
  go ()

let enqueue t lane ~kind ~sync ~sector ~count ~data =
  let q = lane.l_sched in
  let e =
    Sched.enqueue q ~kind ~sync ~sector ~count ~data ~arrival_us:(now_us t)
  in
  Metrics.observe t.h_queue_depth (Sched.length q);
  emit_queue t ~action:`Enqueue ~kind ~sector ~sectors:count
    ~depth:(Sched.length q) ~wait_us:0;
  e

(* ---- scatter/gather over a volume run's piece map ---- *)

(* Split a logical write of [len] bytes into member runs and publish the
   logical op. *)
let write_runs t ~op ~sector ~len data =
  let ss = sector_size t in
  if len <= 0 || len mod ss <> 0 || len > Bytes.length data then
    invalid_arg "Io: write data must be a positive multiple of sector size";
  let count = len / ss in
  let runs = Volume.Map.map_write (Volume.map t.volume) ~sector ~count in
  emit_volume_op t ~op ~sector ~sectors:count ~runs:(List.length runs);
  runs

(* Assemble the member-contiguous payload of one write run from the
   logical request, the first [len] bytes of [data].  A run as long as
   the request covers it in order (a plain disk, a mirror replica, a
   request inside one chunk), so the original buffer is returned as-is —
   an async write that may leave it queued must copy its prefix then. *)
let gather ~ss ~len data run =
  if run.Volume.count * ss = len then data
  else begin
    let out = Bytes.create (run.Volume.count * ss) in
    let pos = ref 0 in
    List.iter
      (fun (off, len) ->
        Bytes.blit data (off * ss) out (!pos * ss) (len * ss);
        pos := !pos + len)
      run.Volume.pieces;
    out
  end

(* Spread one read run's member-contiguous data back into the logical
   destination buffer. *)
let scatter ~ss data run out =
  let pos = ref 0 in
  List.iter
    (fun (off, len) ->
      Bytes.blit data (!pos * ss) out (off * ss) (len * ss);
      pos := !pos + len)
    run.Volume.pieces

(* ---- per-run service: every request passes through its lane's queue ---- *)

(* One read run on one lane, landing at the start of [buf]. *)
let lane_read_run t lane ~sector ~count ~sync buf =
  let e = enqueue t lane ~kind:`Read ~sync ~sector ~count ~data:(Some buf) in
  dispatch_until t lane ~id:e.Sched.id

(* One synchronous write run on one lane (payload already gathered and
   owned by the caller). *)
let lane_sync_write_run t lane ~sector data =
  let count = Bytes.length data / sector_size t in
  let e =
    enqueue t lane ~kind:`Write ~sync:true ~sector ~count ~data:(Some data)
  in
  dispatch_until t lane ~id:e.Sched.id

(* One asynchronous write run of [data]'s first [len] bytes on one lane.
   [owned] says whether [data] (then exactly [len] bytes) may stay queued
   without copying. *)
let lane_async_write_run t lane ~sector ~owned ~len data =
  (* A request that may outlive this call must own its payload: copy
     exactly the prefix so a caller reusing its buffer cannot
     retroactively change a pending write.  A bound-0 lane dispatches it
     before returning, so the caller's buffer is safe to use as is. *)
  let payload =
    if owned || t.max_queue = 0 then data else Bytes.sub data 0 len
  in
  let (_ : Sched.entry) =
    enqueue t lane ~kind:`Write ~sync:false ~sector
      ~count:(len / sector_size t) ~data:(Some payload)
  in
  (* Bounded queue: past [max_queue] pending requests the member must
     make room before the caller may continue. *)
  while Sched.length lane.l_sched > t.max_queue do
    ignore (dispatch_next t lane : Sched.entry option)
  done

(* ---- mirror read load balancing ---- *)

(* Replicas ranked by how soon they could serve the request: shallowest
   queue first, then earliest busy horizon, then closest head, then
   member index (deterministic tie-break). *)
let mirror_order t ~sector =
  let score lane =
    let qlen = Sched.length lane.l_sched in
    let head = Disk.head_sector lane.l_disk in
    (qlen, max 0 (lane.l_busy_until_us - now_us t), abs (head - sector),
     lane.l_member)
  in
  List.sort
    (fun a b -> compare (score a) (score b))
    (Array.to_list t.lanes)

(* A failed replica is transparently retried on the next-best member;
   only when every replica exhausts its retry budget does the failure
   surface.  Each fail-over is counted in [io.degraded_reads].  A failed
   attempt never touches [buf]. *)
let mirror_read t ~sector ~count ~sync buf =
  let rec go last = function
    | [] -> (
        match last with Some e -> raise e | None -> assert false)
    | lane :: rest -> (
        match lane_read_run t lane ~sector ~count ~sync buf with
        | () -> lane
        | exception (Read_failed _ as e) ->
            if rest <> [] then Metrics.incr t.c_degraded_reads;
            go (Some e) rest)
  in
  go None (mirror_order t ~sector)

(* ---- public request paths ---- *)

let sync_read_into t ~sector ~count buf =
  let ss = sector_size t in
  if Bytes.length buf < count * ss then
    invalid_arg "Io.sync_read_into: buffer too short";
  let go () =
    match Volume.policy t.volume with
    | Volume.Mirror ->
        emit_volume_op t ~op:"read" ~sector ~sectors:count ~runs:1;
        let lane = mirror_read t ~sector ~count ~sync:true buf in
        Clock.advance_to_us t.clock lane.l_busy_until_us
    | Volume.Stripe _ | Volume.Log_stripe _ -> (
        let runs = Volume.Map.map_read (Volume.map t.volume) ~sector ~count in
        emit_volume_op t ~op:"read" ~sector ~sectors:count
          ~runs:(List.length runs);
        match runs with
        | [ r ] ->
            (* One run covers the whole request in order: it lands in
               the caller's buffer directly. *)
            let lane = t.lanes.(r.Volume.member) in
            lane_read_run t lane ~sector:r.Volume.sector ~count ~sync:true buf;
            Clock.advance_to_us t.clock lane.l_busy_until_us
        | runs ->
            let finish = ref 0 in
            List.iter
              (fun (r : Volume.run) ->
                let lane = t.lanes.(r.Volume.member) in
                let data = Bytes.create (r.Volume.count * ss) in
                lane_read_run t lane ~sector:r.Volume.sector
                  ~count:r.Volume.count ~sync:true data;
                scatter ~ss data r buf;
                finish := max !finish lane.l_busy_until_us)
              runs;
            (* The runs were issued together and serviced in parallel:
               the caller resumes when the slowest member finishes. *)
            Clock.advance_to_us t.clock !finish)
  in
  (* The span covers the retry loop too: backoff waits are disk time. *)
  if Bus.enabled t.bus then Bus.with_span t.bus "io_read" go else go ()

let sync_read t ~sector ~count =
  let buf = Bytes.create (count * sector_size t) in
  sync_read_into t ~sector ~count buf;
  buf

let sync_write t ~sector data =
  let go () =
    let ss = sector_size t in
    let finish = ref 0 in
    List.iter
      (fun (r : Volume.run) ->
        let lane = t.lanes.(r.Volume.member) in
        lane_sync_write_run t lane ~sector:r.Volume.sector
          (gather ~ss ~len:(Bytes.length data) data r);
        finish := max !finish lane.l_busy_until_us)
      (write_runs t ~op:"write" ~sector ~len:(Bytes.length data) data);
    Clock.advance_to_us t.clock !finish
  in
  if Bus.enabled t.bus then Bus.with_span t.bus "io_write" go else go ()

let async_write ?len t ~sector data =
  let len = Option.value len ~default:(Bytes.length data) in
  let go () =
    let ss = sector_size t in
    List.iter
      (fun (r : Volume.run) ->
        let payload = gather ~ss ~len data r in
        lane_async_write_run t
          t.lanes.(r.Volume.member)
          ~sector:r.Volume.sector ~owned:(payload != data)
          ~len:(r.Volume.count * ss) payload)
      (write_runs t ~op:"write_async" ~sector ~len data);
    (* Writer throttling: the application may run ahead of the disk only
       by the write-buffer depth — measured against the slowest member. *)
    if max_busy t - Clock.now_us t.clock > t.max_backlog_us then
      Clock.advance_to_us t.clock (max_busy t - t.max_backlog_us)
  in
  (* The async span's elapsed time is only the throttle wait (if any):
     the op does not block on the device itself. *)
  if Bus.enabled t.bus then Bus.with_span t.bus "io_write_async" go else go ()

let note_clustered_read t ~blocks =
  Metrics.incr t.c_clustered_reads;
  Metrics.add t.c_clustered_read_blocks blocks

let note_clustered_write t ~blocks =
  Metrics.incr t.c_clustered_writes;
  Metrics.add t.c_clustered_write_blocks blocks

let queue_depth t =
  Array.fold_left (fun acc lane -> acc + Sched.length lane.l_sched) 0 t.lanes

let drain t =
  let pending = queue_depth t > 0 || max_busy t > Clock.now_us t.clock in
  let go () =
    dispatch_all t;
    Clock.advance_to_us t.clock (max_busy t)
  in
  (* Only span an actual wait — a no-op drain would add zero-length spans
     to every sync. *)
  if Bus.enabled t.bus && pending then Bus.with_span t.bus "io_drain" go
  else go ()

(* A bound-0 lane is the default; only an installed discipline queues. *)
let scheduler t =
  if t.max_queue = 0 then None
  else Some (Sched.discipline t.lanes.(0).l_sched)

let set_scheduler ?(max_queue = 32) t d =
  if max_queue < 1 then invalid_arg "Io.set_scheduler: max_queue < 1";
  (* Flush any pending queues under the old policy before switching, so a
     policy change can never reorder requests issued before it. *)
  dispatch_all t;
  let discipline, bound =
    match d with None -> (Sched.Fcfs, 0) | Some d -> (d, max_queue)
  in
  t.max_queue <- bound;
  Array.iter (fun lane -> lane.l_sched <- Sched.create discipline) t.lanes

let member_stats t i = Disk.stats (member_disk t i)

let snapshot_media t =
  (* Pending queued writes belong on the snapshot: flush them to every
     member (extending its busy horizon) without advancing the clock. *)
  dispatch_all t;
  Volume.snapshot t.volume

let restore_media t media =
  Array.iter (fun lane -> Sched.clear lane.l_sched) t.lanes;
  Volume.restore t.volume media

let backlog_us t = max 0 (max_busy t - Clock.now_us t.clock)
