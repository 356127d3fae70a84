module Bitset = Lfs_util.Bitset
module Cache = Lfs_cache.Block_cache
module Io = Lfs_disk.Io

let release (st : State.t) addr ~bytes =
  if addr <> Layout.null_addr then
    Seg_usage.sub_live st.usage (Layout.segment_of_block st.layout addr) ~bytes

(* Encode a pointer map into the mount's pointer-block buffer, which
   [Segwriter.append] then copies into the segment. *)
let ptr_block_bytes (st : State.t) ptrs =
  let b = st.ptr_buf in
  Bytes.fill b 0 (Bytes.length b) '\000';
  Array.iteri (fun i p -> Bytes.set_int32_le b (i * 4) (Int32.of_int p)) ptrs;
  b

(* Write one file's dirty pointer blocks: double-indirect children feed
   the top block, which feeds the inode. *)
let flush_pointer_blocks (st : State.t) ~privilege (e : State.itable_entry) =
  let bs = st.layout.Layout.block_size in
  let inum = e.ino.Inode.inum in
  if Bitset.cardinal e.dind_child_dirty > 0 then begin
    let top =
      match e.dind_top with
      | Some t -> t
      | None -> assert false (* children imply a top map *)
    in
    Bitset.iter_set
      (fun child ->
        match e.dind_children.(child) with
        | None -> assert false
        | Some m ->
            let addr =
              Segwriter.append st ~privilege
                ~entry:(Summary.Indirect { inum; idx = 1 + child })
                ~live_bytes:bs (ptr_block_bytes st m)
            in
            let old = top.(child) in
            top.(child) <- addr;
            release st old ~bytes:bs;
            Cache.remove st.cache (Block_io.key_raw old);
            e.dind_top_dirty <- true)
      e.dind_child_dirty;
    Bitset.clear_all e.dind_child_dirty
  end;
  if e.dind_top_dirty then begin
    (match e.dind_top with
    | None -> assert false
    | Some top ->
        let addr =
          Segwriter.append st ~privilege
            ~entry:(Summary.Dindirect { inum })
            ~live_bytes:bs (ptr_block_bytes st top)
        in
        let old = e.ino.Inode.dindirect in
        e.ino.Inode.dindirect <- addr;
        release st old ~bytes:bs;
        Cache.remove st.cache (Block_io.key_raw old);
        e.ino_dirty <- true);
    e.dind_top_dirty <- false
  end;
  if e.ind_dirty then begin
    (match e.ind_map with
    | None -> assert false
    | Some m ->
        let addr =
          Segwriter.append st ~privilege
            ~entry:(Summary.Indirect { inum; idx = 0 })
            ~live_bytes:bs (ptr_block_bytes st m)
        in
        let old = e.ino.Inode.indirect in
        e.ino.Inode.indirect <- addr;
        release st old ~bytes:bs;
        Cache.remove st.cache (Block_io.key_raw old);
        e.ino_dirty <- true);
    e.ind_dirty <- false
  end

let flush_file_data (st : State.t) ~privilege inum blknos =
  let bs = st.layout.Layout.block_size in
  match Inode_store.find_loaded st inum with
  | None ->
      (* A dirty data block always has its file in the inode table (it got
         there when the block was written, and deletion removes the cache
         entries), so this cannot happen. *)
      assert false
  | Some e ->
      let version = Imap.version st.imap inum in
      List.iter
        (fun blkno ->
          let key = Block_io.key_data ~inum ~blkno in
          match Cache.find st.cache key with
          | None -> assert false
          | Some data ->
              let addr =
                Segwriter.append st ~privilege
                  ~entry:(Summary.Data { inum; blkno; version })
                  ~live_bytes:bs data
              in
              let old = Inode_store.bmap_write st e blkno addr in
              release st old ~bytes:bs;
              Cache.mark_clean st.cache key)
        (List.sort compare blknos);
      flush_pointer_blocks st ~privilege e

(* Pack [dirty] — the dirty inodes, by inum, whose pointer blocks are
   already written — into shared inode blocks and point the inode map at
   them. *)
let flush_inodes (st : State.t) ~privilege dirty =
  let per_block = Layout.inodes_per_block st.layout in
  let rec chunks = function
    | [] -> []
    | l ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> take (n - 1) (x :: acc) rest
        in
        let group, rest = take per_block [] l in
        group :: chunks rest
  in
  let flush_group group =
    let block = Cache.take_zeroed st.cache st.layout.Layout.block_size in
    List.iteri
      (fun slot (e : State.itable_entry) ->
        Inode.encode_into e.ino block ~off:(slot * Layout.inode_bytes))
      group;
    let live = List.length group * Layout.inode_bytes in
    let addr =
      Segwriter.append st ~privilege ~entry:Summary.Inode_block
        ~live_bytes:live block
    in
    (* Cache the fresh inode block so immediate re-reads are hits.  The
       segment buffer holds its own copy, so the cache may keep this one. *)
    Cache.insert st.cache (Block_io.key_raw addr) ~dirty:false block;
    List.iteri
      (fun slot (e : State.itable_entry) ->
        let inum = e.ino.Inode.inum in
        (match Imap.location st.imap inum with
        | Some (old_addr, _) -> release st old_addr ~bytes:Layout.inode_bytes
        | None -> ());
        Imap.set_location st.imap inum ~addr ~slot;
        e.ino_dirty <- false)
      group
  in
  List.iter flush_group (chunks dirty)

(* Pointer blocks and inodes only — the part of the backlog that is
   small and bounded (no file data).  Used by the cleaner to persist its
   evacuations.  The dirty set is scanned once: writing an entry's
   pointer blocks leaves its inode dirty, so after that pass the dirty
   inodes are exactly these entries. *)
let flush_metadata (st : State.t) ~privilege =
  let dirty = Inode_store.dirty_inodes st in
  List.iter
    (fun (e : State.itable_entry) -> flush_pointer_blocks st ~privilege e)
    dirty;
  flush_inodes st ~privilege dirty

let flush_data (st : State.t) ~privilege =
  if not st.flushing then begin
    st.flushing <- true;
    Fun.protect
      ~finally:(fun () -> st.flushing <- false)
      (fun () ->
        (if Lfs_obs.Bus.enabled st.bus then
           Lfs_obs.Bus.with_span st.bus "lfs_log_flush"
         else fun f -> f ())
        @@ fun () ->
        (* Group dirty cache blocks by owner, oldest file first. *)
        let order = ref [] in
        let by_owner = Hashtbl.create 64 in
        List.iter
          (fun { Cache.owner; blkno } ->
            match Hashtbl.find_opt by_owner owner with
            | None ->
                Hashtbl.replace by_owner owner [ blkno ];
                order := owner :: !order
            | Some blknos -> Hashtbl.replace by_owner owner (blkno :: blknos))
          (Cache.dirty_keys st.cache);
        List.iter
          (fun owner ->
            flush_file_data st ~privilege owner (Hashtbl.find by_owner owner))
          (List.rev !order);
        (* Files whose metadata is dirty without dirty data (deletes that
           touched the directory inode, cleaner-marked pointer blocks...) *)
        flush_metadata st ~privilege)
  end

(* fsync: push exactly one file — its dirty data blocks, pointer blocks
   and inode — to the log, leaving the rest of the write buffer alone
   (§4.3.5's sync trigger; the caller forces the partial segment out and
   drains). *)
let flush_file (st : State.t) ~privilege inum =
  let blknos =
    Cache.fold_dirty
      (fun key _ acc ->
        if key.Cache.owner = inum then key.Cache.blkno :: acc else acc)
      st.cache []
  in
  (match (blknos, Inode_store.find_loaded st inum) with
  | [], None -> ()
  | [], Some e -> flush_pointer_blocks st ~privilege e
  | _ :: _, _ -> flush_file_data st ~privilege inum blknos);
  match Inode_store.find_loaded st inum with
  | Some e when e.State.ino_dirty ->
      let block = Cache.take_zeroed st.cache st.layout.Layout.block_size in
      Inode.encode_into e.ino block ~off:0;
      let addr =
        Segwriter.append st ~privilege ~entry:Summary.Inode_block
          ~live_bytes:Layout.inode_bytes block
      in
      Cache.insert st.cache (Block_io.key_raw addr) ~dirty:false block;
      (match Imap.location st.imap inum with
      | Some (old_addr, _) -> release st old_addr ~bytes:Layout.inode_bytes
      | None -> ());
      Imap.set_location st.imap inum ~addr ~slot:0;
      e.State.ino_dirty <- false
  | Some _ | None -> ()

let sync (st : State.t) ~privilege =
  flush_data st ~privilege;
  Segwriter.flush_active st;
  Io.drain st.io

let flush_meta_blocks (st : State.t) ~privilege =
  let bs = st.layout.Layout.block_size in
  List.iter
    (fun idx ->
      let block = Imap.encode_block st.imap ~idx in
      let addr =
        Segwriter.append st ~privilege
          ~entry:(Summary.Imap_block { idx })
          ~live_bytes:bs block
      in
      release st st.imap_block_addr.(idx) ~bytes:bs;
      st.imap_block_addr.(idx) <- addr)
    (Imap.dirty_blocks st.imap);
  Imap.clear_dirty st.imap;
  (* Usage blocks are written from a snapshot of the dirty set: writing
     them dirties the array again (self-reference), which the paper
     explicitly tolerates — live counts are only a cleaning hint. *)
  let dirty_usage = Seg_usage.dirty_blocks st.usage in
  List.iter
    (fun idx ->
      let block = Seg_usage.encode_block st.usage ~idx in
      let addr =
        Segwriter.append st ~privilege
          ~entry:(Summary.Usage_block { idx })
          ~live_bytes:bs block
      in
      release st st.usage_block_addr.(idx) ~bytes:bs;
      st.usage_block_addr.(idx) <- addr)
    dirty_usage;
  Seg_usage.clear_dirty st.usage

let checkpoint ?(privilege = `System) (st : State.t) =
  (if Lfs_obs.Bus.enabled st.bus then Lfs_obs.Bus.with_span st.bus "checkpoint"
   else fun f -> f ())
  @@ fun () ->
  flush_data st ~privilege;
  flush_meta_blocks st ~privilege:`System;
  Segwriter.flush_active st;
  Io.drain st.io;
  let cp =
    {
      Checkpoint.timestamp_us = Io.now_us st.io;
      seq = st.next_seq - 1;
      tail_segment = st.tail_segment;
      next_inum_hint = Imap.next_hint st.imap;
      imap_addrs = Array.copy st.imap_block_addr;
      usage_addrs = Array.copy st.usage_block_addr;
    }
  in
  let region = Checkpoint.encode st.layout cp in
  let region_block =
    if st.cp_flip then snd st.layout.Layout.cp_region
    else fst st.layout.Layout.cp_region
  in
  Io.sync_write st.io
    ~sector:(Layout.sector_of_block st.layout region_block)
    region;
  let region_idx = if st.cp_flip then 1 else 0 in
  st.cp_flip <- not st.cp_flip;
  st.last_checkpoint_us <- Io.now_us st.io;
  st.last_cp_seq <- cp.Checkpoint.seq;
  Lfs_obs.Metrics.incr st.counters.State.c_checkpoints;
  if Lfs_obs.Bus.enabled st.bus then
    Lfs_obs.Bus.emit st.bus
      (Lfs_obs.Event.Checkpoint { seq = cp.Checkpoint.seq; region = region_idx })
