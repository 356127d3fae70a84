module Cache = Lfs_cache.Block_cache
module Readahead = Lfs_cache.Readahead
module Io = Lfs_disk.Io
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event

module type FS = sig
  type t
  type file

  val io : t -> Io.t
  val cache : t -> Cache.t
  val readahead : t -> Readahead.t
  val block_size : t -> int
  val read_clustering : t -> bool
  val root : int
  val null_addr : int
  val find : t -> int -> file
  val inum : file -> int
  val size : file -> int
  val kind : file -> Fs_intf.file_kind
  val bmap : t -> file -> int -> int
  val read_disk_into : t -> int -> n:int -> bytes -> unit
  val fetch_into : t -> int -> bytes -> unit
  val clusterable : t -> int -> bool
  val write_dir_block : t -> file -> int -> bytes -> unit
end

module type S = sig
  type t
  type file

  val cached_block : t -> file -> int -> bytes option
  val read_block : t -> file -> blkno:int -> addr:int -> bytes
  val read : t -> file -> off:int -> len:int -> bytes
  val zero_tail : t -> file -> size:int -> unit
  val lookup : t -> dir:int -> string -> int option
  val add : t -> dir:int -> string -> int -> unit
  val remove : t -> dir:int -> string -> unit
  val entries : t -> dir:int -> (string * int) list
  val resolve : t -> string list -> int
  val resolve_dir : t -> string list -> int
  val resolve_path : t -> string -> int
  val regular : t -> string -> file
end

let key ~inum ~blkno = { Cache.owner = inum; blkno }

module Make (F : FS) = struct
  type t = F.t
  type file = F.file

  (* A buffer for one block about to be cached: a recycled one when the
     cache has a spare. *)
  let take t = Cache.take (F.cache t) (F.block_size t)

  (* Fetch one block the caller has already missed in the cache, and
     cache it clean. *)
  let fill t ~inum ~blkno ~addr =
    let data = take t in
    F.fetch_into t addr data;
    Cache.insert (F.cache t) (key ~inum ~blkno) ~dirty:false data;
    data

  let cached_block t f blkno =
    let inum = F.inum f in
    match Cache.find (F.cache t) (key ~inum ~blkno) with
    | Some _ as hit -> hit
    | None ->
        let addr = F.bmap t f blkno in
        if addr = F.null_addr then None else Some (fill t ~inum ~blkno ~addr)

  let read_block t f ~blkno ~addr =
    let inum = F.inum f in
    match Cache.find (F.cache t) (key ~inum ~blkno) with
    | Some data -> data
    | None -> fill t ~inum ~blkno ~addr

  (* Clustered read: [n] physically contiguous blocks (logical blocks
     [first_blkno..] stored at [addr..]) in one disk request, each cached
     clean.  A one-block run is read straight into the buffer it is
     cached in, so the caller must only read the returned bytes, and only
     until its next cache update.  A longer run is read into a buffer of
     its own and each block copied into a buffer of the cache: an insert
     may evict, and so recycle, an earlier block of the same run, so the
     run's buffer is what the caller reads.  None of the blocks may be
     cached already: a dirty cached block must never be clobbered with
     stale disk data. *)
  let read_run t ~inum ~first_blkno ~addr ~n =
    if n = 1 then begin
      let data = take t in
      F.read_disk_into t addr ~n:1 data;
      Cache.insert (F.cache t) (key ~inum ~blkno:first_blkno) ~dirty:false
        data;
      data
    end
    else begin
      let bs = F.block_size t in
      let data = Bytes.create (n * bs) in
      F.read_disk_into t addr ~n data;
      Io.note_clustered_read (F.io t) ~blocks:n;
      for i = 0 to n - 1 do
        let block = take t in
        Bytes.blit data (i * bs) block 0 bs;
        Cache.insert (F.cache t)
          (key ~inum ~blkno:(first_blkno + i))
          ~dirty:false block
      done;
      data
    end

  (* How many blocks starting at [blkno]/[addr] can go in one request:
     consecutive logical blocks up to [max_blkno] at consecutive
     clusterable addresses, none already cached. *)
  let probe_run t f ~inum ~blkno ~addr ~max_blkno =
    let cache = F.cache t in
    let n = ref 1 in
    let continue = ref true in
    while !continue && blkno + !n <= max_blkno do
      let next = blkno + !n in
      let next_addr = F.bmap t f next in
      if
        next_addr = addr + !n
        && (not (Cache.mem cache (key ~inum ~blkno:next)))
        && F.clusterable t next_addr
      then incr n
      else continue := false
    done;
    !n

  (* The helpers below take their context as arguments rather than
     closing over it: a closure built inside a functor body also
     captures the functor's own values, and these run on every
     operation. *)

  let issue t ~inum ~first_blkno ~addr ~n =
    ignore (read_run t ~inum ~first_blkno ~addr ~n);
    for i = 0 to n - 1 do
      Readahead.mark_issued (F.readahead t) ~owner:inum ~blkno:(first_blkno + i)
    done;
    let bus = Io.bus (F.io t) in
    if Bus.enabled bus then
      Bus.emit bus
        (Event.Readahead { owner = inum; start = first_blkno; blocks = n })

  let issue_run t ~inum ~first_blkno ~addr ~n =
    let bus = Io.bus (F.io t) in
    if n > 0 then
      if Bus.enabled bus then
        Bus.with_span bus "prefetch" (fun () ->
            issue t ~inum ~first_blkno ~addr ~n)
      else issue t ~inum ~first_blkno ~addr ~n

  (* Walk blocks [blkno, last] of the read-ahead window, growing the run
     of [n] blocks from [first]/[run_addr] while addresses stay
     consecutive, and issuing it when they stop. *)
  let rec plan t f ~inum ~last ~blkno ~first ~run_addr ~n =
    if blkno > last then issue_run t ~inum ~first_blkno:first ~addr:run_addr ~n
    else begin
      let addr =
        if Cache.mem (F.cache t) (key ~inum ~blkno) then F.null_addr
        else F.bmap t f blkno
      in
      let next = blkno + 1 in
      if addr <> F.null_addr && F.clusterable t addr then begin
        if n > 0 && addr = run_addr + n then
          plan t f ~inum ~last ~blkno:next ~first ~run_addr ~n:(n + 1)
        else begin
          issue_run t ~inum ~first_blkno:first ~addr:run_addr ~n;
          plan t f ~inum ~last ~blkno:next ~first:blkno ~run_addr:addr ~n:1
        end
      end
      else begin
        issue_run t ~inum ~first_blkno:first ~addr:run_addr ~n;
        plan t f ~inum ~last ~blkno:next ~first ~run_addr ~n:0
      end
    end

  (* Issue the planned read-ahead window [start, start + count): clamp to
     the file, skip holes, cached and unclusterable blocks, and fetch what
     remains as contiguous multi-block runs, inserted clean. *)
  let prefetch t f ~inum ~start ~count =
    let bs = F.block_size t in
    let size = F.size f in
    let max_blkno = if size = 0 then -1 else (size - 1) / bs in
    let last = min (start + count - 1) max_blkno in
    plan t f ~inum ~last ~blkno:start ~first:(-1) ~run_addr:F.null_addr ~n:0

  (* Fill a read miss at [blkno]/[addr]: the run of blocks fetched in one
     request, clustered when allowed, cached clean. *)
  let fill_run t f ~inum ~blkno ~addr ~max_blkno =
    if F.read_clustering t && F.clusterable t addr then
      let n = probe_run t f ~inum ~blkno ~addr ~max_blkno in
      read_run t ~inum ~first_blkno:blkno ~addr ~n
    else fill t ~inum ~blkno ~addr

  let read t f ~off ~len =
    let inum = F.inum f in
    let cache = F.cache t and readahead = F.readahead t in
    let bus = Io.bus (F.io t) in
    let len = max 0 (min len (F.size f - off)) in
    let bs = F.block_size t in
    let result = Bytes.make len '\000' in
    let max_blkno = if len = 0 then -1 else (off + len - 1) / bs in
    (* Blocks fetched by the most recent fill are sliced from its buffer
       rather than looked up again. *)
    let run_first = ref 0 in
    let run_n = ref 0 in
    let run_bytes = ref Bytes.empty in
    let pos = ref 0 in
    while !pos < len do
      let abs = off + !pos in
      let blkno = abs / bs in
      let in_block = abs mod bs in
      let chunk = min (len - !pos) (bs - in_block) in
      if !run_n > 0 && blkno >= !run_first && blkno < !run_first + !run_n then
        Bytes.blit !run_bytes
          (((blkno - !run_first) * bs) + in_block)
          result !pos chunk
      else begin
        match Cache.find cache (key ~inum ~blkno) with
        | Some block ->
            Readahead.served readahead ~owner:inum ~blkno ~hit:true;
            Bytes.blit block in_block result !pos chunk
        | None ->
            Readahead.served readahead ~owner:inum ~blkno ~hit:false;
            let addr = F.bmap t f blkno in
            (* A hole reads as zeros (a dirty overlay for the hole would
               have been found in the cache above). *)
            if addr <> F.null_addr then begin
              let run =
                if Bus.enabled bus then
                  Bus.with_span bus "read_fill" (fun () ->
                      fill_run t f ~inum ~blkno ~addr ~max_blkno)
                else fill_run t f ~inum ~blkno ~addr ~max_blkno
              in
              run_first := blkno;
              run_n := Bytes.length run / bs;
              run_bytes := run;
              Bytes.blit run in_block result !pos chunk
            end
      end;
      pos := !pos + chunk
    done;
    (if len > 0 then
       match
         Readahead.observe readahead ~owner:inum ~first:(off / bs)
           ~last:max_blkno
       with
       | None -> ()
       | Some (start, count) -> prefetch t f ~inum ~start ~count);
    Io.charge_copy (F.io t) ~bytes:len;
    result

  let zero_tail t f ~size =
    let bs = F.block_size t in
    if size mod bs <> 0 then
      match cached_block t f (size / bs) with
      | Some b ->
          Bytes.fill b (size mod bs) (bs - (size mod bs)) '\000';
          Cache.mark_dirty (F.cache t) (key ~inum:(F.inum f) ~blkno:(size / bs))
      | None -> ()

  (* Directories *)

  let dir t inum =
    let f = F.find t inum in
    if F.kind f <> Fs_intf.Directory then
      Errors.raise_ (Errors.Enotdir (Printf.sprintf "inum %d" inum));
    f

  let nblocks t f = (F.size f + F.block_size t - 1) / F.block_size t

  let rec scan t f name ~n blk =
    if blk >= n then None
    else begin
      Io.charge_lookup (F.io t);
      let found =
        match cached_block t f blk with
        | Some block -> Dir_block.find block name
        | None -> None
      in
      if Option.is_some found then found else scan t f name ~n (blk + 1)
    end

  let lookup t ~dir:d name =
    let f = dir t d in
    scan t f name ~n:(nblocks t f) 0

  (* A zeroed block for a directory to grow into; it is always handed
     to [F.write_dir_block], which caches it. *)
  let empty_block t = Cache.take_zeroed (F.cache t) (F.block_size t)

  let rec place t f name inum ~n blk =
    if blk >= n then begin
      let block = empty_block t in
      Dir_block.insert_front block name inum;
      F.write_dir_block t f n block
    end
    else begin
      Io.charge_lookup (F.io t);
      let block =
        match cached_block t f blk with Some b -> b | None -> empty_block t
      in
      if Dir_block.fits block name then begin
        Dir_block.insert_front block name inum;
        F.write_dir_block t f blk block
      end
      else place t f name inum ~n (blk + 1)
    end

  let add t ~dir:d name inum =
    if not (Path.valid_name name) then
      Errors.raise_ (Errors.Einval (Printf.sprintf "bad name %S" name));
    let f = dir t d in
    place t f name inum ~n:(nblocks t f) 0

  let rec hunt t f name ~n blk =
    if blk >= n then Errors.raise_ (Errors.Enoent name)
    else begin
      Io.charge_lookup (F.io t);
      match cached_block t f blk with
      | Some block when Dir_block.remove block name ->
          F.write_dir_block t f blk block
      | Some _ | None -> hunt t f name ~n (blk + 1)
    end

  let remove t ~dir:d name =
    let f = dir t d in
    hunt t f name ~n:(nblocks t f) 0

  let entries t ~dir:d =
    let f = dir t d in
    List.concat
      (List.init (nblocks t f) (fun blk ->
           Io.charge_lookup (F.io t);
           match cached_block t f blk with
           | Some block -> Dir_block.parse block
           | None -> []))

  (* Paths *)

  let rec resolve_from t cur = function
    | [] -> cur
    | name :: rest -> (
        match lookup t ~dir:cur name with
        | Some inum -> resolve_from t inum rest
        | None -> Errors.raise_ (Errors.Enoent name))

  let resolve t components = resolve_from t F.root components

  let resolve_dir t components =
    let inum = resolve t components in
    ignore (dir t inum);
    inum

  let resolve_path t path = resolve t (Path.split_exn path)

  let regular t path =
    let f = F.find t (resolve_path t path) in
    if F.kind f = Fs_intf.Directory then Errors.raise_ (Errors.Eisdir path);
    f
end

let check_read ~off ~len =
  if off < 0 || len < 0 then
    Errors.raise_ (Errors.Einval "negative offset or length")

let check_write ~off ~len ~max_size =
  if off < 0 then Errors.raise_ (Errors.Einval "negative offset");
  (* [off + len] would overflow for offsets near [max_int]. *)
  if off > max_size - len then Errors.raise_ Errors.Efbig

let check_truncate ~size ~max_size =
  if size < 0 then Errors.raise_ (Errors.Einval "negative size");
  if size > max_size then Errors.raise_ Errors.Efbig
