module Cache = Lfs_cache.Block_cache
module Errors = Lfs_vfs.Errors
module Io = Lfs_disk.Io
module Metrics = Lfs_obs.Metrics
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event

let select_victims ?live_budget (st : State.t) ~batch =
  let usage = st.usage in
  let now = Io.now_us st.io in
  let candidates = ref [] in
  (* The dirty set is maintained by [Seg_usage.set_state]: no full
     segment-table sweep per cleaning pass.  Iteration order is
     arbitrary; the (score, seg) sort below makes selection
     deterministic. *)
  Seg_usage.iter_dirty
    (fun seg ->
      if Seg_usage.utilization usage seg < st.config.Config.max_live_fraction
      then candidates := seg :: !candidates)
    usage;
  let score seg =
    match st.policy with
    | Config.Greedy -> float_of_int (Seg_usage.live_bytes usage seg)
    | Config.Oldest -> float_of_int (Seg_usage.mtime_us usage seg)
    | Config.Cost_benefit ->
        (* Higher benefit/cost is better; negate so that sorting ascending
           picks the best first. *)
        let u = Seg_usage.utilization usage seg in
        let age = float_of_int (max 1 (now - Seg_usage.mtime_us usage seg)) in
        -.((1.0 -. u) *. age /. (1.0 +. u))
  in
  let scored = List.map (fun s -> (score s, s)) !candidates in
  let sorted = List.map snd (List.sort compare scored) in
  (* Bound the pass by what the evacuation itself will consume: take
     victims while their combined live data stays within one segment's
     payload.  Dead segments cost nothing to clean, so a long run of them
     can be freed in a single pass. *)
  let payload_budget =
    match live_budget with
    | Some b -> b
    | None -> st.layout.Layout.payload_blocks * st.layout.Layout.block_size
  in
  let rec take taken live_sum n = function
    | [] -> List.rev taken
    | _ when n >= batch -> List.rev taken
    | seg :: rest ->
        let live = Seg_usage.live_bytes usage seg in
        if taken <> [] && live_sum + live > payload_budget then List.rev taken
        else take (seg :: taken) (live_sum + live) (n + 1) rest
  in
  take [] 0 0 sorted

let release (st : State.t) addr ~bytes =
  if addr <> Layout.null_addr then
    Seg_usage.sub_live st.usage (Layout.segment_of_block st.layout addr) ~bytes

(* A missing or unreadable inode (possible after recovery from a heavily
   damaged log) means nothing it owned is live. *)
let find_entry (st : State.t) inum =
  match Inode_store.find st inum with
  | e -> Some e
  | exception Errors.Error _ -> None

(* Is the block at [addr] still referenced?  Step 1 is the version check
   from the summary entry alone; step 2 walks the inode map and inode
   (§4.3.3). *)
let data_block_live (st : State.t) ~inum ~blkno ~version ~addr =
  Imap.is_allocated st.imap inum
  && version = Imap.version st.imap inum
  &&
  match find_entry st inum with
  | None -> false
  | Some e -> Inode_store.bmap_read st e blkno = addr

(* Relocate one live data block: append it to the log immediately and
   re-point the file at the copy.  A dirty cache copy is newer than the
   on-disk one, so it is what gets written (and becomes clean). *)
let move_data_block (st : State.t) ~inum ~blkno ~version payload ~off =
  let bs = st.layout.Layout.block_size in
  let key = Block_io.key_data ~inum ~blkno in
  let content, off =
    match Cache.find st.cache key with
    | Some b -> (b, 0)
    | None -> (payload, off)
  in
  let addr' =
    Segwriter.append ~off st ~privilege:`System
      ~entry:(Summary.Data { inum; blkno; version })
      ~live_bytes:bs content
  in
  let e = Inode_store.find st inum in
  let old = Inode_store.bmap_write st e blkno addr' in
  release st old ~bytes:bs;
  Cache.mark_clean st.cache key

(* The block at [addr] is [payload]'s [block_size] bytes at [off].
   [payload] is the mount's reused victim buffer, so nothing may keep a
   reference into it: data blocks are copied into the segment being
   built, and the pointer blocks the cache keeps are copied out.
   [moved] accumulates the *bytes* of live data being relocated. *)
let process_entry (st : State.t) ~addr ~payload ~off entry ~moved =
  let bs = st.layout.Layout.block_size in
  (* Hand a live pointer block we already read to the cache, so loading
     its map does not re-read the disk.  Only a live one: a dead copy
     cached under its address would outlive the segment's reuse. *)
  let cache_pointer_block () =
    let block = Cache.take st.cache bs in
    Bytes.blit payload off block 0 bs;
    Cache.insert st.cache (Block_io.key_raw addr) ~dirty:false block
  in
  match (entry : Summary.entry) with
  | Summary.Data { inum; blkno; version } ->
      if data_block_live st ~inum ~blkno ~version ~addr then begin
        move_data_block st ~inum ~blkno ~version payload ~off;
        moved := !moved + bs
      end
  | Summary.Indirect { inum; idx } ->
      if Imap.is_allocated st.imap inum then begin
        match find_entry st inum with
        | None -> ()
        | Some e ->
            if idx = 0 then begin
              if e.ino.Inode.indirect = addr then begin
                cache_pointer_block ();
                Inode_store.cleaner_touch_ind st e;
                moved := !moved + bs
              end
            end
            else begin
              let child = idx - 1 in
              if Inode_store.dind_child_addr st e child = addr then begin
                cache_pointer_block ();
                Inode_store.cleaner_touch_dind_child st e child;
                moved := !moved + bs
              end
            end
      end
  | Summary.Dindirect { inum } ->
      if Imap.is_allocated st.imap inum then begin
        match find_entry st inum with
        | None -> ()
        | Some e ->
            if e.ino.Inode.dindirect = addr then begin
              cache_pointer_block ();
              Inode_store.cleaner_touch_dind_top st e;
              moved := !moved + bs
            end
      end
  | Summary.Inode_block ->
      let per_block = Layout.inodes_per_block st.layout in
      for slot = 0 to per_block - 1 do
        let slot_off = off + (slot * Layout.inode_bytes) in
        let inum = Inode.inum_at payload ~off:slot_off in
        if
          inum > 0
          && inum < Imap.max_files st.imap
          && Imap.is_allocated st.imap inum
        then
          match Imap.location st.imap inum with
          | Some (a, s) when a = addr && s = slot ->
              (* Live inode: force a rewrite of the table's copy, which
                 is never older than this one.  Only a file the table
                 lacks is decoded (a nonzero inum always decodes). *)
              let e =
                match Inode_store.find_loaded st inum with
                | Some e -> e
                | None ->
                    Inode_store.materialize st
                      (Option.get (Inode.decode_at payload ~off:slot_off))
              in
              Inode_store.mark_dirty e;
              moved := !moved + Layout.inode_bytes
          | Some _ | None -> ()
      done
  | Summary.Imap_block { idx } ->
      if st.imap_block_addr.(idx) = addr then begin
        Imap.mark_block_dirty st.imap idx;
        moved := !moved + bs
      end
  | Summary.Usage_block { idx } ->
      if st.usage_block_addr.(idx) = addr then begin
        Seg_usage.mark_block_dirty st.usage idx;
        moved := !moved + bs
      end

(* The mount's victim buffer, holding at least [nblocks] blocks: one
   segment's payload from the first pass on, grown only for a summary
   that claims more. *)
let victim_buffer (st : State.t) ~nblocks =
  let layout = st.layout in
  let need =
    max layout.Layout.payload_blocks nblocks * layout.Layout.block_size
  in
  if Bytes.length st.victim_buf < need then
    st.victim_buf <- Bytes.create need;
  st.victim_buf

(* Evacuate one victim; [false] if it must stay dirty.  A summary that
   does not decode describes nothing, so the live data Seg_usage still
   records in the segment cannot be found and moved: freeing it would
   destroy that data.  A payload that fails its summary's CRC is treated
   the same way: moving it would give damaged blocks a fresh, valid CRC
   in their new segment.  The check also means no stale bytes of the
   reused buffer, past what this read filled, are ever relocated.  Only
   a segment with nothing live (one torn by a crash before any
   checkpoint referenced it) is freed without a usable summary. *)
let clean_segment (st : State.t) seg ~moved ~max_seq =
  let layout = st.layout in
  let bs = layout.Layout.block_size in
  let first = Layout.segment_first_block layout seg in
  let summary_region =
    Io.sync_read st.io
      ~sector:(Layout.sector_of_block layout first)
      ~count:(layout.Layout.summary_blocks * layout.Layout.block_sectors)
  in
  Metrics.add st.counters.State.c_cleaner_bytes_read
    (layout.Layout.summary_blocks * bs);
  match Summary.decode summary_region with
  | None -> Seg_usage.live_bytes st.usage seg = 0
  | Some (header, entries) ->
      max_seq := max !max_seq header.Summary.seq;
      let nblocks = header.Summary.nblocks in
      let payload = victim_buffer st ~nblocks in
      if nblocks > 0 then
        Io.sync_read_into st.io
          ~sector:
            (Layout.sector_of_block layout
               (first + layout.Layout.summary_blocks))
          ~count:(nblocks * layout.Layout.block_sectors)
          payload;
      Metrics.add st.counters.State.c_cleaner_bytes_read (nblocks * bs);
      if
        Summary.payload_crc payload ~off:0 ~len:(nblocks * bs)
        <> header.Summary.payload_crc
      then Seg_usage.live_bytes st.usage seg = 0
      else begin
        List.iteri
          (fun idx entry ->
            let addr = Layout.segment_payload_block layout ~seg ~idx in
            process_entry st ~addr ~payload ~off:(idx * bs) entry ~moved)
          entries;
        true
      end

(* Evacuate [victims] and mark them clean; the shared machinery behind
   both policy-driven and exact cleaning. *)
let clean_victims (st : State.t) victims =
  if victims = [] then 0
  else begin
    st.cleaning <- true;
    Fun.protect
      ~finally:(fun () -> st.cleaning <- false)
      (fun () ->
        Bus.with_span st.bus "cleaner_pass" @@ fun () ->
        let read_before =
          Metrics.value st.counters.State.c_cleaner_bytes_read
        in
        let moved = ref 0 in
        let max_seq = ref 0 in
        let freed =
          List.filter (fun seg -> clean_segment st seg ~moved ~max_seq) victims
        in
        Metrics.add st.counters.State.c_cleaner_bytes_moved !moved;
        (* Persist the evacuations (pointer blocks, inodes, imap/usage
           blocks) and wait for the device before the victims become
           reusable.  Crash recovery reaches the moved copies by rolling
           the log forward; when roll-forward is disabled a full
           checkpoint takes that role (the 1990 paper's configuration).
           Freeing dead segments moved nothing, so nothing needs
           persisting. *)
        match
          if !moved > 0 then begin
            Write_path.flush_metadata st ~privilege:`System;
            Write_path.flush_meta_blocks st ~privilege:`System;
            Segwriter.flush_active st;
            Io.drain st.io;
            (* Reusing a victim that carried post-checkpoint log would
               punch a hole in the roll-forward sequence chain, so commit
               a checkpoint first.  (With roll-forward disabled every
               pass checkpoints, as in the 1990 implementation.) *)
            if (not st.config.Config.roll_forward) || !max_seq > st.last_cp_seq
            then Write_path.checkpoint st
          end
        with
        | () ->
            List.iter
              (fun seg ->
                Seg_usage.reset_segment st.usage seg;
                Seg_usage.set_state st.usage seg Seg_usage.Clean)
              freed;
            let n = List.length freed in
            Metrics.add st.counters.State.c_segments_cleaned n;
            Metrics.incr st.counters.State.c_cleaner_passes;
            if Bus.enabled st.bus then
              Bus.emit st.bus
                (Event.Cleaner_pass
                   {
                     victims = List.length victims;
                     freed = n;
                     bytes_read =
                       Metrics.value st.counters.State.c_cleaner_bytes_read
                       - read_before;
                     bytes_moved = !moved;
                   });
            n
        | exception Errors.Error Errors.Enospc ->
            (* Could not persist the evacuations: the victims must stay
               dirty (the moved copies remain merely redundant). *)
            0)
  end

(* Reusing a segment that carries the only copy of post-checkpoint log
   would punch a hole in the roll-forward chain.  Checkpointing before a
   cleaning round makes every existing segment reusable; the exact
   [max_seq] guard in [clean_victims] backstops the rare case where a
   round cleans its own output. *)
let checkpoint_if_log_uncovered (st : State.t) =
  if st.next_seq - 1 > st.last_cp_seq then Write_path.checkpoint st

let clean_once (st : State.t) ~batch =
  if batch <= 0 then invalid_arg "Cleaner.clean_once: batch must be positive";
  (* Budget the evacuation by the headroom actually available: moving
     more live data per pass amortizes the fixed metadata flush, but the
     moves must fit in the clean segments at hand. *)
  let seg_payload =
    st.layout.Layout.payload_blocks * st.layout.Layout.block_size
  in
  let live_budget = max 1 (Seg_usage.nclean st.usage - 2) * seg_payload in
  clean_victims st (select_victims ~live_budget st ~batch)

let clean_exact (st : State.t) ~victims =
  (try checkpoint_if_log_uncovered st
   with Errors.Error Errors.Enospc -> ());
  let victims =
    List.filter (fun seg -> Seg_usage.state st.usage seg = Seg_usage.Dirty)
      victims
  in
  (* Chunk by live budget so each pass's evacuation stays bounded. *)
  let payload_budget =
    st.layout.Layout.payload_blocks * st.layout.Layout.block_size
  in
  let rec chunks acc cur cur_live = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | seg :: rest ->
        let live = Seg_usage.live_bytes st.usage seg in
        if cur <> [] && cur_live + live > payload_budget then
          chunks (List.rev cur :: acc) [ seg ] live rest
        else chunks acc (seg :: cur) (cur_live + live) rest
  in
  List.fold_left
    (fun freed chunk -> freed + clean_victims st chunk)
    0
    (chunks [] [] 0 victims)

let default_batch = 16

let clean_to_target ?target (st : State.t) =
  if st.cleaning then 0
  else begin
    (try checkpoint_if_log_uncovered st
     with Errors.Error Errors.Enospc -> ());
    let target =
      match target with
      | Some t -> t
      | None -> st.config.Config.clean_target_segments
    in
    let target = min target (Seg_usage.nsegments st.usage) in
    let freed = ref 0 in
    let continue = ref true in
    while !continue && Seg_usage.nclean st.usage < target do
      let before = Seg_usage.nclean st.usage in
      let n = clean_once st ~batch:default_batch in
      freed := !freed + n;
      (* Cleaning writes a partial segment of its own, so "every segment
         clean" is unreachable; stop when a pass no longer nets clean
         segments. *)
      if n = 0 || Seg_usage.nclean st.usage <= before then continue := false
    done;
    !freed
  end

let write_cost (st : State.t) =
  let bs = st.layout.Layout.block_size in
  let v c = Metrics.value c in
  let logged = v st.counters.State.c_blocks_logged * bs in
  let bytes_read = v st.counters.State.c_cleaner_bytes_read in
  let bytes_moved = v st.counters.State.c_cleaner_bytes_moved in
  let overhead = bytes_read + bytes_moved in
  let new_data = logged - bytes_moved in
  if new_data <= 0 then 1.0
  else float_of_int (logged + overhead - bytes_moved) /. float_of_int new_data
