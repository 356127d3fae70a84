module Cache = Lfs_cache.Block_cache
module Readahead = Lfs_cache.Readahead
module Dir_block = Lfs_vfs.Dir_block
module Errors = Lfs_vfs.Errors
module Fs_intf = Lfs_vfs.Fs_intf
module Io = Lfs_disk.Io
module Path = Lfs_vfs.Path
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Profile = Lfs_obs.Profile

(* Announce a synchronous metadata write on the trace bus — the pattern
   the paper blames for FFS's small-file performance (§2). *)
let trace_sync_write io ~what ~sector ~sectors =
  let bus = Io.bus io in
  if Bus.enabled bus then
    Bus.emit bus (Event.Ffs_sync_write { what; sector; sectors })

let owner_raw = -3
let root_inum = 1

type entry = { ino : Inode.t; mutable dirty : bool }

type t = {
  io : Io.t;
  config : Config.t;
  layout : Layout.t;
  cache : Cache.t;
  readahead : Readahead.t;
  alloc : Alloc.t;
  itable : (int, entry) Hashtbl.t;
  root : int;
}

let name = "FFS"
let io t = t.io
let config t = t.config
let layout t = t.layout
let free_blocks t = Alloc.free_block_count t.alloc

let key_data ~inum ~blkno = { Cache.owner = inum; blkno }
let key_raw addr = { Cache.owner = owner_raw; blkno = addr }
let sector_of_block t addr = Layout.sector_of_block t.layout addr

let read_disk_into t addr ~n buf =
  Io.sync_read_into t.io ~sector:(sector_of_block t addr)
    ~count:(n * t.layout.Layout.block_sectors)
    buf

(* A buffer for a block about to be cached, recycled when the cache has
   a spare; the caller overwrites all of it. *)
let take t = Cache.take t.cache t.layout.Layout.block_size

(* Raw (by-address) block read through the cache: inode-table blocks and
   indirect blocks.  The result is the cache's buffer, valid until the
   next cache insert, remove or drop. *)
let read_raw t addr =
  if addr = Layout.null_addr then invalid_arg "Ffs.read_raw: null address";
  match Cache.find t.cache (key_raw addr) with
  | Some data -> data
  | None ->
      let data = take t in
      read_disk_into t addr ~n:1 data;
      Cache.insert t.cache (key_raw addr) ~dirty:false data;
      data

(* A private copy of a cached block, to edit and insert in its place. *)
let copy_block t src =
  let block = take t in
  Bytes.blit src 0 block 0 (Bytes.length block);
  block

(* Update one inode slot in its fixed table block.  [`Sync] models BSD's
   synchronous metadata write on create/delete: the slot is edited in a
   copy, so a write that fails leaves the cached block as it was.
   [`Async] edits the cached block in place and leaves it dirty for
   delayed write-back. *)
let store_inode t (ino : Inode.t option) ~inum ~mode =
  let addr, slot = Layout.inode_location t.layout inum in
  let block =
    match mode with
    | `Sync -> copy_block t (read_raw t addr)
    | `Async -> read_raw t addr
  in
  (match ino with
  | Some ino -> Inode.encode_into ino block ~off:(slot * Layout.inode_bytes)
  | None -> Inode.clear_slot block ~off:(slot * Layout.inode_bytes));
  match mode with
  | `Sync ->
      trace_sync_write t.io ~what:"inode" ~sector:(sector_of_block t addr)
        ~sectors:t.layout.Layout.block_sectors;
      Io.sync_write t.io ~sector:(sector_of_block t addr) block;
      Cache.insert t.cache (key_raw addr) ~dirty:false block
  | `Async -> Cache.insert t.cache (key_raw addr) ~dirty:true block

let get_entry t inum =
  match Hashtbl.find_opt t.itable inum with
  | Some e -> e
  | None ->
      if not (Alloc.inode_allocated t.alloc inum) then
        Errors.raise_ (Errors.Enoent (Printf.sprintf "inum %d" inum));
      let addr, slot = Layout.inode_location t.layout inum in
      let block = read_raw t addr in
      (match Inode.decode_at block ~off:(slot * Layout.inode_bytes) with
      | Some ino when ino.Inode.inum = inum ->
          let e = { ino; dirty = false } in
          Hashtbl.replace t.itable inum e;
          e
      | Some _ | None ->
          failwith
            (Printf.sprintf "FFS: inode bitmap says %d allocated but slot empty"
               inum))

(* Pointer access.  Indirect blocks are ordinary disk blocks updated in
   place through the cache. *)

let read_ptr t addr idx =
  Int32.to_int (Bytes.get_int32_le (read_raw t addr) (idx * 4)) land 0xFFFFFFFF

let write_ptr t addr idx v =
  let block = read_raw t addr in
  Bytes.set_int32_le block (idx * 4) (Int32.of_int v);
  Cache.insert t.cache (key_raw addr) ~dirty:true block

let bmap_read t (e : entry) blkno =
  if blkno < 0 then invalid_arg "bmap_read";
  let p = Layout.ptrs_per_block t.layout in
  if blkno < Inode.ndirect then e.ino.Inode.direct.(blkno)
  else if blkno < Inode.ndirect + p then begin
    if e.ino.Inode.indirect = Layout.null_addr then Layout.null_addr
    else read_ptr t e.ino.Inode.indirect (blkno - Inode.ndirect)
  end
  else begin
    let d = blkno - Inode.ndirect - p in
    let child = d / p and off = d mod p in
    if child >= p then Errors.raise_ Errors.Efbig;
    if e.ino.Inode.dindirect = Layout.null_addr then Layout.null_addr
    else begin
      let child_addr = read_ptr t e.ino.Inode.dindirect child in
      if child_addr = Layout.null_addr then Layout.null_addr
      else read_ptr t child_addr off
    end
  end

(* BSD's maxbpg: one file may claim only so many blocks of a cylinder
   group before allocation moves on, so large files spread across the
   disk rather than monopolizing a group. *)
let maxbpg = 256

let alloc_near t (e : entry) blkno =
  let near =
    if blkno > 0 && blkno mod maxbpg = 0 then begin
      (* Chunk boundary: rotate to the next group. *)
      let g =
        (Layout.group_of_inum t.layout e.ino.Inode.inum + (blkno / maxbpg))
        mod t.layout.Layout.ngroups
      in
      Layout.group_data_first t.layout g
    end
    else begin
      (* Prefer right after the file's previous block; fall back to the
         inode's group. *)
      let rec back i =
        if i < 0 then
          Layout.group_data_first t.layout
            (Layout.group_of_inum t.layout e.ino.Inode.inum)
        else begin
          let a = bmap_read t e i in
          if a <> Layout.null_addr then a else back (i - 1)
        end
      in
      back (min (blkno - 1) (Inode.ndirect - 1 + Layout.ptrs_per_block t.layout))
    end
  in
  match Alloc.alloc_block t.alloc ~near with
  | Some addr -> addr
  | None -> Errors.raise_ Errors.Enospc

(* Allocate a zeroed metadata (pointer) block. *)
let alloc_meta_block t (e : entry) blkno =
  let addr = alloc_near t e blkno in
  Cache.insert t.cache (key_raw addr) ~dirty:true
    (Cache.take_zeroed t.cache t.layout.Layout.block_size);
  addr

let bmap_alloc t (e : entry) blkno =
  let p = Layout.ptrs_per_block t.layout in
  if blkno < Inode.ndirect then begin
    if e.ino.Inode.direct.(blkno) = Layout.null_addr then begin
      e.ino.Inode.direct.(blkno) <- alloc_near t e blkno;
      e.dirty <- true
    end;
    e.ino.Inode.direct.(blkno)
  end
  else if blkno < Inode.ndirect + p then begin
    if e.ino.Inode.indirect = Layout.null_addr then begin
      e.ino.Inode.indirect <- alloc_meta_block t e blkno;
      e.dirty <- true
    end;
    let idx = blkno - Inode.ndirect in
    let addr = read_ptr t e.ino.Inode.indirect idx in
    if addr <> Layout.null_addr then addr
    else begin
      let addr = alloc_near t e blkno in
      write_ptr t e.ino.Inode.indirect idx addr;
      addr
    end
  end
  else begin
    let d = blkno - Inode.ndirect - p in
    let child = d / p and off = d mod p in
    if child >= p then Errors.raise_ Errors.Efbig;
    if e.ino.Inode.dindirect = Layout.null_addr then begin
      e.ino.Inode.dindirect <- alloc_meta_block t e blkno;
      e.dirty <- true
    end;
    let child_addr =
      let a = read_ptr t e.ino.Inode.dindirect child in
      if a <> Layout.null_addr then a
      else begin
        let a = alloc_meta_block t e blkno in
        write_ptr t e.ino.Inode.dindirect child a;
        a
      end
    in
    let addr = read_ptr t child_addr off in
    if addr <> Layout.null_addr then addr
    else begin
      let addr = alloc_near t e blkno in
      write_ptr t child_addr off addr;
      addr
    end
  end

(* Write one elevator window, already address-sorted.  With
   [write_clustering] on, physically adjacent blocks coalesce into a
   single multi-block transfer (the 4.4BSD clustering pass). *)
let write_window t window =
  let items =
    List.filter_map
      (fun (addr, key) ->
        if addr = Layout.null_addr then None
        else
          match Cache.find t.cache key with
          | Some data -> Some (addr, key, data)
          | None -> None)
      window
  in
  if not t.config.Config.write_clustering then
    List.iter
      (fun (addr, key, data) ->
        Io.async_write t.io ~sector:(sector_of_block t addr) data;
        Cache.mark_clean t.cache key)
      items
  else begin
    (* [group] holds a run of adjacent blocks, newest first. *)
    let flush_group group =
      match List.rev group with
      | [] -> ()
      | (addr0, _, _) :: _ as run ->
          let data = Bytes.concat Bytes.empty (List.map (fun (_, _, d) -> d) run) in
          Io.async_write t.io ~sector:(sector_of_block t addr0) data;
          let n = List.length run in
          if n > 1 then Io.note_clustered_write t.io ~blocks:n;
          List.iter (fun (_, key, _) -> Cache.mark_clean t.cache key) run
    in
    let last =
      List.fold_left
        (fun group ((addr, _, _) as item) ->
          match group with
          | (prev, _, _) :: _ when addr = prev + 1 -> item :: group
          | [] -> [ item ]
          | _ ->
              flush_group group;
              [ item ])
        [] items
    in
    flush_group last
  end

(* Delayed write-back: dirty inodes are folded into their table blocks,
   then every dirty block goes to its fixed address, sorted so the
   elevator gets its best shot — FFS's problem is where the blocks are,
   not the order they are issued in. *)
let flush t =
  Hashtbl.iter
    (fun inum (e : entry) ->
      if e.dirty then begin
        store_inode t (Some e.ino) ~inum ~mode:`Async;
        e.dirty <- false
      end)
    t.itable;
  let writes =
    Cache.fold_dirty
      (fun key _ acc ->
        let addr =
          if key.Cache.owner = owner_raw then key.Cache.blkno
          else
            bmap_read t (get_entry t key.Cache.owner) key.Cache.blkno
        in
        (addr, key) :: acc)
      t.cache []
    |> List.rev
  in
  (* The disk driver's elevator reorders a bounded queue, not the whole
     backlog: sort within windows of the era's tagged-queue depth. *)
  let queue_depth = 16 in
  let rec windows = function
    | [] -> ()
    | l ->
        let rec take n acc rest =
          match (n, rest) with
          | 0, _ | _, [] -> (List.rev acc, rest)
          | n, x :: rest -> take (n - 1) (x :: acc) rest
        in
        let window, rest = take queue_depth [] l in
        write_window t (List.sort compare window);
        windows rest
  in
  windows writes

let persist_bitmaps t =
  let blocks =
    List.concat_map
      (fun g -> Alloc.encode_group t.alloc g)
      (Alloc.dirty_groups t.alloc)
  in
  if not t.config.Config.write_clustering then
    List.iter
      (fun (addr, block) ->
        Io.async_write t.io ~sector:(sector_of_block t addr) block)
      blocks
  else begin
    let flush_group group =
      match List.rev group with
      | [] -> ()
      | (addr0, _) :: _ as run ->
          Io.async_write t.io ~sector:(sector_of_block t addr0)
            (Bytes.concat Bytes.empty (List.map snd run));
          let n = List.length run in
          if n > 1 then Io.note_clustered_write t.io ~blocks:n
    in
    let last =
      List.fold_left
        (fun group ((addr, _) as item) ->
          match group with
          | (prev, _) :: _ when addr = prev + 1 -> item :: group
          | [] -> [ item ]
          | _ ->
              flush_group group;
              [ item ])
        []
        (List.sort compare blocks)
    in
    flush_group last
  end;
  Alloc.clear_dirty t.alloc

let do_sync t =
  flush t;
  persist_bitmaps t;
  Io.drain t.io

let housekeep t =
  if Cache.over_capacity t.cache then flush t;
  match Cache.oldest_dirty_age_us t.cache with
  | Some age when age >= t.config.Config.writeback_age_us -> flush t
  | Some _ | None -> ()

(* Directories and the read path: the block-file layer shared with LFS.
   Writing a directory block on the create/delete path is synchronous —
   the behaviour the paper blames for coupling FFS to disk latency;
   [repair] writes back without waiting. *)

let write_dir_block t (e : entry) blk block ~sync_write =
  let inum = e.ino.Inode.inum in
  (* [block] may be the cache's own buffer.  Mapping a block past the
     direct pointers reads pointer blocks through the cache, and the
     evictions that causes may recycle that buffer, so such a block is
     written from a private copy. *)
  let block = if blk < Inode.ndirect then block else copy_block t block in
  let addr = bmap_alloc t e blk in
  if sync_write then begin
    trace_sync_write t.io ~what:"directory" ~sector:(sector_of_block t addr)
      ~sectors:t.layout.Layout.block_sectors;
    Io.sync_write t.io ~sector:(sector_of_block t addr) block;
    Cache.insert t.cache (key_data ~inum ~blkno:blk) ~dirty:false block
  end
  else Cache.insert t.cache (key_data ~inum ~blkno:blk) ~dirty:true block;
  if (blk + 1) * t.layout.Layout.block_size > e.ino.Inode.size then begin
    e.ino.Inode.size <- (blk + 1) * t.layout.Layout.block_size;
    e.dirty <- true
  end;
  e.ino.Inode.mtime_us <- Io.now_us t.io;
  e.dirty <- true

(* Where a file's data and pointer blocks may lie: on the disk, past the
   superblock and past their cylinder group's bitmaps and inode table.
   [fsck] reports any other address; [repair] clears it. *)
let data_address t addr =
  let l = t.layout in
  addr >= 1
  && addr < l.Layout.total_blocks
  && addr >= Layout.group_data_first l (Layout.group_of_block l addr)

module B = Lfs_vfs.Block_file.Make (struct
  type nonrec t = t
  type file = entry

  let io t = t.io
  let cache t = t.cache
  let readahead t = t.readahead
  let block_size t = t.layout.Layout.block_size
  let read_clustering t = t.config.Config.read_clustering
  let root = root_inum
  let null_addr = Layout.null_addr
  let find = get_entry
  let inum (e : file) = e.ino.Inode.inum
  let size (e : file) = e.ino.Inode.size
  let kind (e : file) = e.ino.Inode.kind
  let bmap = bmap_read
  let read_disk_into = read_disk_into
  let fetch_into t addr buf = read_disk_into t addr ~n:1 buf
  let clusterable _ _ = true
  let write_dir_block t e blk block =
    write_dir_block t e blk block ~sync_write:true

  let max_files t = t.layout.Layout.max_files
  let allocated t inum = Alloc.inode_allocated t.alloc inum
  let nlink (e : file) = e.ino.Inode.nlink
  let indirect (e : file) = e.ino.Inode.indirect
  let dindirect (e : file) = e.ino.Inode.dindirect
  let ptrs_per_block t = Layout.ptrs_per_block t.layout
  let dind_child t (e : file) child = read_ptr t e.ino.Inode.dindirect child
  let data_address = data_address
end)

(* Namespace operations *)

let make_node t path kind op =
  Errors.wrap (fun () ->
      Profile.with_op (Io.bus t.io) op @@ fun () ->
      Io.charge_syscall t.io;
      let parent, fname = Path.parent_and_name_exn path in
      let dir = B.resolve_dir t parent in
      (match B.lookup t ~dir fname with
      | Some _ -> Errors.raise_ (Errors.Eexist path)
      | None -> ());
      let group = Layout.group_of_inum t.layout dir in
      let inum =
        match
          Alloc.alloc_inode t.alloc ~group ~spread:(kind = Fs_intf.Directory)
        with
        | Some i -> i
        | None -> Errors.raise_ Errors.Enospc
      in
      let ino = Inode.create ~inum ~kind ~now_us:(Io.now_us t.io) in
      Hashtbl.replace t.itable inum { ino; dirty = false };
      (* The two synchronous writes of Figure 1: the new inode's table
         block, then the directory data block. *)
      store_inode t (Some ino) ~inum ~mode:`Sync;
      B.add t ~dir fname inum;
      housekeep t)

let create t path = make_node t path Fs_intf.Regular `Create
let mkdir t path = make_node t path Fs_intf.Directory `Mkdir

let release_file_blocks t (e : entry) =
  let bs = t.layout.Layout.block_size in
  let inum = e.ino.Inode.inum in
  let nblocks = Inode.nblocks ~block_size:bs e.ino in
  for blkno = 0 to nblocks - 1 do
    let addr = bmap_read t e blkno in
    if addr <> Layout.null_addr then begin
      Alloc.free_block t.alloc addr;
      Cache.remove t.cache (key_data ~inum ~blkno)
    end
  done;
  let release_raw addr =
    if addr <> Layout.null_addr then begin
      Alloc.free_block t.alloc addr;
      Cache.remove t.cache (key_raw addr)
    end
  in
  (match e.ino.Inode.dindirect with
  | a when a = Layout.null_addr -> ()
  | dind ->
      for child = 0 to Layout.ptrs_per_block t.layout - 1 do
        release_raw (read_ptr t dind child)
      done);
  release_raw e.ino.Inode.indirect;
  release_raw e.ino.Inode.dindirect

let delete t path =
  Errors.wrap (fun () ->
      Profile.with_op (Io.bus t.io) `Delete @@ fun () ->
      Io.charge_syscall t.io;
      let parent, fname = Path.parent_and_name_exn path in
      let dir = B.resolve t parent in
      let inum =
        match B.lookup t ~dir fname with
        | Some i -> i
        | None -> Errors.raise_ (Errors.Enoent path)
      in
      let e = get_entry t inum in
      if e.ino.Inode.kind = Fs_intf.Directory && B.entries t ~dir:inum <> []
      then Errors.raise_ (Errors.Enotempty path);
      B.remove t ~dir fname;
      if e.ino.Inode.nlink > 1 then begin
        e.ino.Inode.nlink <- e.ino.Inode.nlink - 1;
        e.ino.Inode.mtime_us <- Io.now_us t.io;
        store_inode t (Some e.ino) ~inum ~mode:`Sync;
        e.dirty <- false
      end
      else begin
        release_file_blocks t e;
        Readahead.forget t.readahead ~owner:inum;
        store_inode t None ~inum ~mode:`Sync;
        Hashtbl.remove t.itable inum;
        Alloc.free_inode t.alloc inum
      end;
      housekeep t)

let rename t src dst =
  Errors.wrap (fun () ->
      Profile.with_op (Io.bus t.io) `Rename @@ fun () ->
      Io.charge_syscall t.io;
      let src_parent, src_name = Path.parent_and_name_exn src in
      let dst_parent, dst_name = Path.parent_and_name_exn dst in
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: a', y :: b' -> x = y && is_prefix a' b'
        | _ :: _, [] -> false
      in
      if is_prefix (src_parent @ [ src_name ]) (dst_parent @ [ dst_name ]) then
        Errors.raise_ (Errors.Einval "cannot move a directory beneath itself");
      let src_dir = B.resolve t src_parent in
      let inum =
        match B.lookup t ~dir:src_dir src_name with
        | Some i -> i
        | None -> Errors.raise_ (Errors.Enoent src)
      in
      let dst_dir = B.resolve t dst_parent in
      (match B.lookup t ~dir:dst_dir dst_name with
      | Some _ -> Errors.raise_ (Errors.Eexist dst)
      | None -> ());
      B.remove t ~dir:src_dir src_name;
      B.add t ~dir:dst_dir dst_name inum;
      housekeep t)

let link t src dst =
  Errors.wrap (fun () ->
      Profile.with_op (Io.bus t.io) `Link @@ fun () ->
      Io.charge_syscall t.io;
      let src_inum = B.resolve_path t src in
      let e = get_entry t src_inum in
      if e.ino.Inode.kind = Fs_intf.Directory then
        Errors.raise_ (Errors.Eisdir src);
      let dst_parent, dst_name = Path.parent_and_name_exn dst in
      let dst_dir = B.resolve_dir t dst_parent in
      (match B.lookup t ~dir:dst_dir dst_name with
      | Some _ -> Errors.raise_ (Errors.Eexist dst)
      | None -> ());
      (* As with creat, the metadata updates are synchronous. *)
      e.ino.Inode.nlink <- e.ino.Inode.nlink + 1;
      e.ino.Inode.mtime_us <- Io.now_us t.io;
      store_inode t (Some e.ino) ~inum:src_inum ~mode:`Sync;
      e.dirty <- false;
      B.add t ~dir:dst_dir dst_name src_inum;
      housekeep t)

(* Data operations *)

let read t path ~off ~len =
  Errors.wrap (fun () ->
      Profile.with_op (Io.bus t.io) `Read @@ fun () ->
      Io.charge_syscall t.io;
      Lfs_vfs.Block_file.check_read ~off ~len;
      let e = B.regular t path in
      let result = B.read t e ~off ~len in
      e.ino.Inode.atime_us <- Io.now_us t.io;
      e.dirty <- true;
      housekeep t;
      result)

let write t path ~off data =
  Errors.wrap (fun () ->
      Profile.with_op (Io.bus t.io) `Write @@ fun () ->
      Io.charge_syscall t.io;
      let len = Bytes.length data in
      Lfs_vfs.Block_file.check_write ~off ~len
        ~max_size:(Inode.max_size t.layout);
      let e = B.regular t path in
      let inum = e.ino.Inode.inum in
      let bs = t.layout.Layout.block_size in
      let pos = ref 0 in
      while !pos < len do
        let abs = off + !pos in
        let blkno = abs / bs in
        let in_block = abs mod bs in
        let chunk = min (len - !pos) (bs - in_block) in
        let key = key_data ~inum ~blkno in
        (* A former hole gets a freshly allocated block whose on-disk
           content belonged to someone else: treat it as zeros, never
           read it back. *)
        let existed = bmap_read t e blkno <> Layout.null_addr in
        let addr = bmap_alloc t e blkno in
        if chunk = bs then begin
          let block = take t in
          Bytes.blit data !pos block 0 bs;
          Cache.insert t.cache key ~dirty:true block
        end
        else begin
          match Cache.find t.cache key with
          | Some block ->
              Bytes.blit data !pos block in_block chunk;
              Cache.mark_dirty t.cache key
          | None ->
              (* Read-modify-write whenever the pre-existing block holds
                 bytes inside the current file size — even when this
                 write's own offset lies past them.  The fill caches the
                 block clean, and it is edited and dirtied before the
                 next cache update. *)
              if existed && blkno * bs < e.ino.Inode.size then begin
                let block = B.read_block t e ~blkno ~addr in
                Bytes.blit data !pos block in_block chunk;
                Cache.mark_dirty t.cache key
              end
              else begin
                let block = Cache.take_zeroed t.cache bs in
                Bytes.blit data !pos block in_block chunk;
                Cache.insert t.cache key ~dirty:true block
              end
        end;
        pos := !pos + chunk
      done;
      if off + len > e.ino.Inode.size then e.ino.Inode.size <- off + len;
      e.ino.Inode.mtime_us <- Io.now_us t.io;
      e.dirty <- true;
      Io.charge_copy t.io ~bytes:len;
      housekeep t)

let truncate t path ~size =
  Errors.wrap (fun () ->
      Profile.with_op (Io.bus t.io) `Truncate @@ fun () ->
      Io.charge_syscall t.io;
      Lfs_vfs.Block_file.check_truncate ~size
        ~max_size:(Inode.max_size t.layout);
      let e = B.regular t path in
      let inum = e.ino.Inode.inum in
      let bs = t.layout.Layout.block_size in
      let old_size = e.ino.Inode.size in
      if size < old_size then begin
        let keep = (size + bs - 1) / bs in
        let old_blocks = (old_size + bs - 1) / bs in
        for blkno = keep to old_blocks - 1 do
          let addr = bmap_read t e blkno in
          if addr <> Layout.null_addr then begin
            Alloc.free_block t.alloc addr;
            (* In-place FS: clear the pointer so the block is not seen on
               re-extension. *)
            let p = Layout.ptrs_per_block t.layout in
            if blkno < Inode.ndirect then
              e.ino.Inode.direct.(blkno) <- Layout.null_addr
            else if blkno < Inode.ndirect + p then
              write_ptr t e.ino.Inode.indirect (blkno - Inode.ndirect)
                Layout.null_addr
            else begin
              let d = blkno - Inode.ndirect - p in
              let child = read_ptr t e.ino.Inode.dindirect (d / p) in
              if child <> Layout.null_addr then
                write_ptr t child (d mod p) Layout.null_addr
            end;
            Cache.remove t.cache (key_data ~inum ~blkno)
          end
        done;
        B.zero_tail t e ~size
      end;
      e.ino.Inode.size <- size;
      e.ino.Inode.mtime_us <- Io.now_us t.io;
      e.dirty <- true;
      housekeep t)

let stat t path =
  Errors.wrap (fun () ->
      Profile.with_op (Io.bus t.io) `Stat @@ fun () ->
      Io.charge_syscall t.io;
      let inum = B.resolve_path t path in
      let e = get_entry t inum in
      {
        Fs_intf.inum;
        kind = e.ino.Inode.kind;
        size = e.ino.Inode.size;
        nlink = e.ino.Inode.nlink;
        mtime_us = e.ino.Inode.mtime_us;
        atime_us = e.ino.Inode.atime_us;
      })

let readdir t path =
  Errors.wrap (fun () ->
      Profile.with_op (Io.bus t.io) `Readdir @@ fun () ->
      Io.charge_syscall t.io;
      let inum = B.resolve_path t path in
      B.entries t ~dir:inum |> List.map fst |> List.sort String.compare)

let exists t path =
  match Errors.wrap (fun () -> B.resolve_path t path) with
  | Ok _ -> true
  | Error _ -> false

let sync t =
  Profile.with_op (Io.bus t.io) `Sync @@ fun () ->
  Io.charge_syscall t.io;
  do_sync t

let fsync t path =
  Errors.wrap (fun () ->
      Profile.with_op (Io.bus t.io) `Fsync @@ fun () ->
      Io.charge_syscall t.io;
      ignore (B.resolve_path t path);
      do_sync t)

let flush_caches t =
  do_sync t;
  Cache.drop_clean t.cache;
  Readahead.reset t.readahead;
  let clean =
    Hashtbl.fold
      (fun inum (e : entry) acc -> if e.dirty then acc else inum :: acc)
      t.itable []
  in
  List.iter (Hashtbl.remove t.itable) clean

let unmount t = do_sync t

(* Lifecycle *)

let format io config =
  let geometry = Io.geometry io in
  match Layout.compute config geometry with
  | Error _ as e -> e
  | Ok layout ->
      Io.sync_write io ~sector:0 (Layout.encode_superblock layout);
      let t =
        {
          io;
          config;
          layout;
          cache =
            Cache.create ~capacity_blocks:config.Config.cache_blocks
              ~metrics:(Io.metrics io) ~bus:(Io.bus io) (Io.clock io);
          readahead =
            Readahead.create ~max_window:config.Config.readahead_blocks
              (Io.metrics io);
          alloc = Alloc.create layout;
          itable = Hashtbl.create 256;
          root = root_inum;
        }
      in
      (* Zero the inode-table blocks so stale data never decodes as
         inodes. *)
      let zero = Bytes.make layout.Layout.block_size '\000' in
      for g = 0 to layout.Layout.ngroups - 1 do
        let first =
          Layout.group_first_block layout g
          + layout.Layout.bb_blocks + layout.Layout.ib_blocks
        in
        for i = 0 to layout.Layout.it_blocks - 1 do
          Io.async_write io ~sector:(sector_of_block t (first + i)) zero
        done
      done;
      (match Alloc.alloc_inode t.alloc ~group:0 ~spread:false with
      | Some i when i = root_inum -> ()
      | Some _ | None -> failwith "FFS format: could not allocate root inode");
      let root =
        Inode.create ~inum:root_inum ~kind:Fs_intf.Directory
          ~now_us:(Io.now_us io)
      in
      store_inode t (Some root) ~inum:root_inum ~mode:`Sync;
      persist_bitmaps t;
      Io.drain io;
      Ok ()

let mount ?(config = Config.default) io =
  let geometry = Io.geometry io in
  let sector_size = geometry.Lfs_disk.Geometry.sector_size in
  let count = min geometry.Lfs_disk.Geometry.sectors (65536 / sector_size) in
  let sb = Io.sync_read io ~sector:0 ~count in
  match Layout.decode_superblock sb geometry with
  | Error _ as e -> e
  | Ok layout ->
      let config =
        {
          config with
          Config.block_size = layout.Layout.block_size;
          ngroups = layout.Layout.ngroups;
        }
      in
      let t =
        {
          io;
          config;
          layout;
          cache =
            Cache.create ~capacity_blocks:config.Config.cache_blocks
              ~metrics:(Io.metrics io) ~bus:(Io.bus io) (Io.clock io);
          readahead =
            Readahead.create ~max_window:config.Config.readahead_blocks
              (Io.metrics io);
          alloc = Alloc.create layout;
          itable = Hashtbl.create 256;
          root = root_inum;
        }
      in
      for g = 0 to layout.Layout.ngroups - 1 do
        Alloc.load_group t.alloc g ~read:(fun addr ->
            Io.sync_read io ~sector:(sector_of_block t addr)
              ~count:layout.Layout.block_sectors)
      done;
      Ok t

(* --- Structural verification ------------------------------------------ *)

(* The shared checker ([Block_file.S.fsck]) on the live (cache-coherent)
   state, so it sees unwritten changes too, plus the one check only FFS
   has: the cylinder-group bitmaps against the block-ownership map.
   Metadata blocks are permanently allocated; a data block is allocated
   iff something references it. *)
let cross_check_bitmaps t owner report =
  let l = t.layout in
  for g = 0 to l.Layout.ngroups - 1 do
    let first = Layout.group_first_block l g in
    let dfirst = Layout.group_data_first l g in
    let last = min (first + l.Layout.group_blocks) l.Layout.total_blocks - 1 in
    for addr = first to last do
      let in_bitmap = Alloc.block_allocated t.alloc addr in
      if addr < dfirst then begin
        if not in_bitmap then
          report
            (Lfs_vfs.Issue.Lost_block
               { owner = Printf.sprintf "group %d metadata" g; addr })
      end
      else
        match owner addr with
        | Some o ->
            if not in_bitmap then
              report (Lfs_vfs.Issue.Lost_block { owner = o; addr })
        | None -> if in_bitmap then report (Lfs_vfs.Issue.Leaked_block { addr })
    done
  done

let fsck t = B.fsck ~cross_check:(cross_check_bitmaps t) t

let integrity t = List.map Lfs_vfs.Issue.to_string (fsck t)

(* --- Crash repair ---------------------------------------------------- *)

(* fsck-style repair after an unclean shutdown.  Update-in-place leaves
   no log to replay: the bitmaps on disk are whatever the last sync wrote
   (stale), directory blocks may be torn mid-sector, and inode slots may
   disagree with both.  The only ground truth is the inode table plus the
   reachable directory tree, so — exactly as the paper says of FFS — the
   whole disk must be scanned:

   1. every inode-table slot is decoded (garbage slots cleared), and the
      inode bitmaps rebuilt from the survivors;
   2. the namespace is walked from the root, salvaging unparseable
      (torn) directory blocks as empty, pruning entries whose inode did
      not survive, fixing link counts and releasing orphan inodes;
   3. the block bitmaps are rebuilt from the survivors' pointers,
      clearing bogus (out-of-range, doubly-claimed or beyond-size)
      pointers along the way.

   Returns a human-readable line per repair made.  Contrast
   [Lfs_core.Recovery]: LFS reads two checkpoint regions and the log
   tail; this reads every inode table and directory block on disk. *)
let repair t =
  let l = t.layout in
  let repairs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> repairs := s :: !repairs) fmt in
  Hashtbl.reset t.itable;
  (* Pass 1: the inode table decides which inodes exist. *)
  let valid = Array.make l.Layout.max_files false in
  for inum = 1 to l.Layout.max_files - 1 do
    let addr, slot = Layout.inode_location l inum in
    let block = read_raw t addr in
    match Inode.decode_at block ~off:(slot * Layout.inode_bytes) with
    | Some ino when ino.Inode.inum = inum -> valid.(inum) <- true
    | None -> ()
    | Some _ | (exception Lfs_util.Codec.Error _) ->
        note "inum %d: cleared garbage inode slot" inum;
        store_inode t None ~inum ~mode:`Async
  done;
  if not valid.(t.root) then failwith "FFS repair: root inode lost";
  Alloc.reset t.alloc;
  for inum = 1 to l.Layout.max_files - 1 do
    if valid.(inum) then Alloc.mark_inode t.alloc inum
  done;
  (* Pass 2: walk the namespace; salvage torn directory blocks, prune
     entries to dead inodes, then fix nlink and release orphans. *)
  let links = Hashtbl.create 256 in
  let visited = Hashtbl.create 256 in
  let rec walk dir =
    if not (Hashtbl.mem visited dir) then begin
      Hashtbl.replace visited dir ();
      let e = get_entry t dir in
      for blk = 0 to Inode.nblocks ~block_size:l.Layout.block_size e.ino - 1 do
        let entries =
          try Option.fold ~none:[] ~some:Dir_block.parse (B.cached_block t e blk)
          with Lfs_util.Codec.Error _ | Io.Read_failed _ ->
            note "inum %d: salvaged torn directory block %d" dir blk;
            write_dir_block t e blk
              (Bytes.make l.Layout.block_size '\000')
              ~sync_write:false;
            []
        in
        let keep, drop =
          List.partition
            (fun (_, inum) ->
              inum > 0 && inum < l.Layout.max_files && valid.(inum))
            entries
        in
        if drop <> [] then begin
          List.iter
            (fun (name, inum) ->
              note "inum %d: pruned dangling entry %S -> inum %d" dir name inum)
            drop;
          write_dir_block t e blk
            (Dir_block.encode ~block_size:l.Layout.block_size keep)
            ~sync_write:false
        end;
        List.iter
          (fun (_, inum) ->
            Hashtbl.replace links inum
              (1 + Option.value ~default:0 (Hashtbl.find_opt links inum));
            if (get_entry t inum).ino.Inode.kind = Fs_intf.Directory then
              walk inum)
          keep
      done
    end
  in
  Hashtbl.replace links t.root 1;
  walk t.root;
  for inum = 1 to l.Layout.max_files - 1 do
    if valid.(inum) && not (Hashtbl.mem links inum) then begin
      note "inum %d: released orphan inode" inum;
      valid.(inum) <- false;
      Alloc.free_inode t.alloc inum;
      Hashtbl.remove t.itable inum;
      store_inode t None ~inum ~mode:`Async
    end
  done;
  Hashtbl.iter
    (fun inum count ->
      if valid.(inum) then begin
        let e = get_entry t inum in
        if e.ino.Inode.nlink <> count then begin
          note "inum %d: nlink %d -> %d" inum e.ino.Inode.nlink count;
          e.ino.Inode.nlink <- count;
          e.dirty <- true
        end
      end)
    links;
  (* Pass 3: rebuild the block bitmaps from the survivors, so the result
     audits clean.  A pointer outside [data_address], already claimed,
     or beyond the inode's size is bogus — clear it. *)
  let owned = Hashtbl.create 1024 in
  let claim addr =
    if addr = Layout.null_addr then `Null
    else if (not (data_address t addr)) || Hashtbl.mem owned addr then `Bogus
    else begin
      Hashtbl.replace owned addr ();
      Alloc.mark_block t.alloc addr;
      `Ok
    end
  in
  let p = Layout.ptrs_per_block l in
  for inum = 1 to l.Layout.max_files - 1 do
    if valid.(inum) then begin
      let e = get_entry t inum in
      let ino = e.ino in
      let nblocks = Inode.nblocks ~block_size:l.Layout.block_size ino in
      let claim_slot ~blkno ~what addr clear =
        if blkno >= nblocks then begin
          if addr <> Layout.null_addr then begin
            note "inum %d: cleared %s beyond size" inum what;
            clear ();
            e.dirty <- true
          end
        end
        else
          match claim addr with
          | `Bogus ->
              note "inum %d: cleared bogus %s" inum what;
              clear ();
              e.dirty <- true
          | `Ok | `Null -> ()
      in
      for i = 0 to Inode.ndirect - 1 do
        claim_slot ~blkno:i
          ~what:(Printf.sprintf "direct pointer %d" i)
          ino.Inode.direct.(i)
          (fun () -> ino.Inode.direct.(i) <- Layout.null_addr)
      done;
      (match claim ino.Inode.indirect with
      | `Bogus ->
          note "inum %d: cleared bogus indirect pointer" inum;
          ino.Inode.indirect <- Layout.null_addr;
          e.dirty <- true
      | `Null -> ()
      | `Ok ->
          for idx = 0 to p - 1 do
            claim_slot ~blkno:(Inode.ndirect + idx)
              ~what:(Printf.sprintf "indirect slot %d" idx)
              (read_ptr t ino.Inode.indirect idx)
              (fun () -> write_ptr t ino.Inode.indirect idx Layout.null_addr)
          done);
      match claim ino.Inode.dindirect with
      | `Bogus ->
          note "inum %d: cleared bogus dindirect pointer" inum;
          ino.Inode.dindirect <- Layout.null_addr;
          e.dirty <- true
      | `Null -> ()
      | `Ok ->
          for child = 0 to p - 1 do
            match claim (read_ptr t ino.Inode.dindirect child) with
            | `Bogus ->
                note "inum %d: cleared bogus dindirect child %d" inum child;
                write_ptr t ino.Inode.dindirect child Layout.null_addr
            | `Null -> ()
            | `Ok ->
                let ca = read_ptr t ino.Inode.dindirect child in
                for idx = 0 to p - 1 do
                  claim_slot
                    ~blkno:(Inode.ndirect + p + (child * p) + idx)
                    ~what:
                      (Printf.sprintf "dindirect slot %d of child %d" idx child)
                    (read_ptr t ca idx)
                    (fun () -> write_ptr t ca idx Layout.null_addr)
                done
          done
    end
  done;
  do_sync t;
  List.rev !repairs

(* Checker/test support *)

let alloc t = t.alloc
let inode_of t inum = (get_entry t inum).ino
module Block_file = B
