module Cache = Lfs_cache.Block_cache
module Io = Lfs_disk.Io

let key_data ~inum ~blkno = { Cache.owner = inum; blkno }
let key_raw addr = { Cache.owner = State.owner_raw; blkno = addr }

let in_active_segment (st : State.t) addr =
  let seg = st.seg in
  seg.seg >= 0
  &&
  let payload_first =
    Layout.segment_first_block st.layout seg.seg
    + st.layout.Layout.summary_blocks
  in
  addr >= payload_first && addr < payload_first + seg.nblocks

let read_disk (st : State.t) addr ~n =
  Io.sync_read st.io
    ~sector:(Layout.sector_of_block st.layout addr)
    ~count:(n * st.layout.Layout.block_sectors)

let fetch (st : State.t) addr =
  if in_active_segment st addr then begin
    let first = Layout.segment_first_block st.layout st.seg.seg in
    let bs = st.layout.Layout.block_size in
    Bytes.sub st.seg.buf ((addr - first) * bs) bs
  end
  else read_disk st addr ~n:1

let read_raw (st : State.t) addr =
  if addr = Layout.null_addr then
    invalid_arg "Block_io.read_raw: null block address";
  let key = key_raw addr in
  match Cache.find st.cache key with
  | Some data -> data
  | None ->
      let data = fetch st addr in
      Cache.insert st.cache key ~dirty:false data;
      data
