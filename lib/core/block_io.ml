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

let read_disk_into (st : State.t) addr ~n buf =
  Io.sync_read_into st.io
    ~sector:(Layout.sector_of_block st.layout addr)
    ~count:(n * st.layout.Layout.block_sectors)
    buf

let fetch_into (st : State.t) addr buf =
  if in_active_segment st addr then begin
    let first = Layout.segment_first_block st.layout st.seg.seg in
    let bs = st.layout.Layout.block_size in
    Bytes.blit st.seg.buf ((addr - first) * bs) buf 0 bs
  end
  else read_disk_into st addr ~n:1 buf

let read_raw (st : State.t) addr =
  if addr = Layout.null_addr then
    invalid_arg "Block_io.read_raw: null block address";
  let key = key_raw addr in
  match Cache.find st.cache key with
  | Some data -> data
  | None ->
      let data = Cache.take st.cache st.layout.Layout.block_size in
      fetch_into st addr data;
      Cache.insert st.cache key ~dirty:false data;
      data
