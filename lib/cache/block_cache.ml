module Lru = Lfs_util.Lru
module Clock = Lfs_disk.Clock
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Metrics = Lfs_obs.Metrics

type key = { owner : int; blkno : int }

(* Dirty entries are also threaded on a circular doubly-linked list
   through the cache's sentinel, newest dirtying first.  An entry joins
   it whenever [dirty_since_us] is set and leaves it when it turns clean
   or leaves the cache; an entry outside the list links to itself.  The
   sentinel's [older] neighbour is the newest dirtying and its [newer]
   neighbour wraps round to the oldest; the clock is monotone, so that
   is always the longest-dirty entry. *)
type entry = {
  data : bytes;
  mutable is_dirty : bool;
  mutable dirty_since_us : int;
  mutable newer : entry;
  mutable older : entry;
}

type t = {
  clock : Clock.t;
  bus : Bus.t option;
  entries : (key, entry) Lru.t;
  dirty_order : entry;  (* sentinel of the dirty list *)
  capacity : int;
  mutable ndirty : int;
  spares : bytes array;
      (* buffers of entries that left the cache, [0, nspares) in use:
         a stack, so {!take} hands back the most recently freed one *)
  mutable nspares : int;
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_evictions : Metrics.counter;
  c_writebacks : Metrics.counter;
}

let make_entry data ~dirty ~since =
  let rec e =
    { data; is_dirty = dirty; dirty_since_us = since; newer = e; older = e }
  in
  e

let create ?(capacity_blocks = 4096) ?metrics ?bus clock =
  if capacity_blocks <= 0 then invalid_arg "Block_cache.create: capacity";
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let t =
    {
      clock;
      bus;
      entries = Lru.create ();
      dirty_order = make_entry Bytes.empty ~dirty:false ~since:0;
      capacity = capacity_blocks;
      ndirty = 0;
      spares = Array.make capacity_blocks Bytes.empty;
      nspares = 0;
      c_hits = Metrics.counter metrics "cache.hits";
      c_misses = Metrics.counter metrics "cache.misses";
      c_evictions = Metrics.counter metrics "cache.evictions";
      c_writebacks = Metrics.counter metrics "cache.writebacks";
    }
  in
  Metrics.gauge metrics "cache.blocks" (fun () ->
      float_of_int (Lru.length t.entries));
  Metrics.gauge metrics "cache.dirty_blocks" (fun () -> float_of_int t.ndirty);
  t

(* Allocate the event only when someone is listening. *)
let emit t mk =
  match t.bus with
  | Some bus when Bus.enabled bus -> Bus.emit bus (mk ())
  | Some _ | None -> ()

let capacity_blocks t = t.capacity
let length t = Lru.length t.entries
let dirty_count t = t.ndirty
let spare_count t = t.nspares

let find t key =
  match Lru.find t.entries key with
  | Some e ->
      Metrics.incr t.c_hits;
      emit t (fun () ->
          Event.Cache_hit { owner = key.owner; blkno = key.blkno });
      Some e.data
  | None ->
      Metrics.incr t.c_misses;
      emit t (fun () ->
          Event.Cache_miss { owner = key.owner; blkno = key.blkno });
      None

let mem t key = Lru.mem t.entries key

(* A buffer whose entry left the cache becomes a spare; past
   [capacity] spares it is left to the GC. *)
let recycle t data =
  if t.nspares < t.capacity then begin
    t.spares.(t.nspares) <- data;
    t.nspares <- t.nspares + 1
  end

let take t len =
  let n = t.nspares in
  if n > 0 && Bytes.length t.spares.(n - 1) = len then begin
    let data = t.spares.(n - 1) in
    t.spares.(n - 1) <- Bytes.empty;
    t.nspares <- n - 1;
    data
  end
  else Bytes.create len

let take_zeroed t len =
  let data = take t len in
  Bytes.fill data 0 len '\000';
  data

let dirty t key =
  match Lru.peek t.entries key with Some e -> e.is_dirty | None -> false

(* Reclaim clean entries from the LRU side while over capacity.  Dirty
   entries are skipped: they are the write buffer and only write-back may
   release them.  [keep] protects the entry {!insert} just added — without
   it, a cache whose other entries are all dirty would evict the newcomer
   itself.  Sweeping from the cold end stops as soon as the excess is
   reclaimed, so the common insert pays O(1) instead of materializing the
   whole LRU list. *)
let evict_clean_keeping keep t =
  if Lru.length t.entries > t.capacity then begin
    let excess = ref (Lru.length t.entries - t.capacity) in
    Lru.sweep_lru
      (fun k e ->
        if !excess <= 0 then Lru.Stop
        else if e.is_dirty || k = keep then Lru.Keep
        else begin
          decr excess;
          Metrics.incr t.c_evictions;
          emit t (fun () ->
              Event.Cache_evict { owner = k.owner; blkno = k.blkno });
          recycle t e.data;
          Lru.Remove
        end)
      t.entries
  end

(* Dirty bookkeeping: [ndirty] and the dirty list change together. *)
let link_dirty t e =
  let s = t.dirty_order in
  e.is_dirty <- true;
  e.older <- s.older;
  e.newer <- s;
  s.older.newer <- e;
  s.older <- e;
  t.ndirty <- t.ndirty + 1

let unlink_dirty t e =
  e.is_dirty <- false;
  e.older.newer <- e.newer;
  e.newer.older <- e.older;
  e.older <- e;
  e.newer <- e;
  t.ndirty <- t.ndirty - 1

let insert t key ~dirty data =
  (match Lru.peek t.entries key with
  | Some old ->
      if old.is_dirty then unlink_dirty t old;
      if old.data != data then recycle t old.data
  | None -> ());
  let e = make_entry data ~dirty:false ~since:(Clock.now_us t.clock) in
  if dirty then link_dirty t e;
  ignore (Lru.add t.entries key e);
  evict_clean_keeping key t

let mark_dirty t key =
  match Lru.peek t.entries key with
  | None -> raise Not_found
  | Some e ->
      if not e.is_dirty then begin
        e.dirty_since_us <- Clock.now_us t.clock;
        link_dirty t e
      end

let mark_clean t key =
  match Lru.peek t.entries key with
  | None -> ()
  | Some e ->
      if e.is_dirty then begin
        unlink_dirty t e;
        Metrics.incr t.c_writebacks;
        emit t (fun () ->
            Event.Cache_writeback { owner = key.owner; blkno = key.blkno })
      end

let remove t key =
  match Lru.remove t.entries key with
  | None -> ()
  | Some e ->
      if e.is_dirty then unlink_dirty t e;
      recycle t e.data

let fold_dirty f t init =
  Lru.fold_lru
    (fun k e acc -> if e.is_dirty then f k e.data acc else acc)
    t.entries init

let dirty_keys t = List.rev (fold_dirty (fun k _ acc -> k :: acc) t [])

let oldest_dirty_age_us t =
  let oldest = t.dirty_order.newer in
  if oldest == t.dirty_order then None
  else Some (Clock.now_us t.clock - oldest.dirty_since_us)

let over_capacity t = t.ndirty > t.capacity

let drop_clean t =
  Lru.sweep_lru
    (fun _ e ->
      if e.is_dirty then Lru.Keep
      else begin
        recycle t e.data;
        Lru.Remove
      end)
    t.entries

let clear t =
  Lru.clear t.entries;
  t.dirty_order.newer <- t.dirty_order;
  t.dirty_order.older <- t.dirty_order;
  t.ndirty <- 0

let stats_hits t = Metrics.value t.c_hits
let stats_misses t = Metrics.value t.c_misses
