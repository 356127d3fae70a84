(* The file cache: dirty tracking, eviction discipline, write-back
   triggers. *)

module Cache = Lfs_cache.Block_cache
module Clock = Lfs_disk.Clock

let key owner blkno = { Cache.owner; blkno }

let make ?(capacity_blocks = 4) () =
  let clock = Clock.create () in
  (Cache.create ~capacity_blocks clock, clock)

let block c = Bytes.make 16 c

let test_insert_find () =
  let t, _ = make () in
  Cache.insert t (key 1 0) ~dirty:false (block 'a');
  Alcotest.(check bool) "mem" true (Cache.mem t (key 1 0));
  (match Cache.find t (key 1 0) with
  | Some b -> Alcotest.(check char) "content" 'a' (Bytes.get b 0)
  | None -> Alcotest.fail "lost");
  Alcotest.(check int) "hits" 1 (Cache.stats_hits t);
  ignore (Cache.find t (key 9 9));
  Alcotest.(check int) "misses" 1 (Cache.stats_misses t)

let test_dirty_lifecycle () =
  let t, _ = make () in
  Cache.insert t (key 1 0) ~dirty:false (block 'a');
  Alcotest.(check int) "clean" 0 (Cache.dirty_count t);
  Cache.mark_dirty t (key 1 0);
  Cache.mark_dirty t (key 1 0);
  Alcotest.(check int) "one dirty" 1 (Cache.dirty_count t);
  Cache.mark_clean t (key 1 0);
  Alcotest.(check int) "cleaned" 0 (Cache.dirty_count t);
  Alcotest.(check bool) "mark_dirty missing raises" true
    (try
       Cache.mark_dirty t (key 5 5);
       false
     with Not_found -> true)

let test_clean_eviction_only () =
  let t, _ = make ~capacity_blocks:2 () in
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Cache.insert t (key 1 1) ~dirty:true (block 'b');
  Cache.insert t (key 1 2) ~dirty:true (block 'c');
  (* Nothing evictable: the cache must hold all three and admit it is
     over capacity. *)
  Alcotest.(check int) "holds dirty" 3 (Cache.length t);
  Alcotest.(check bool) "over capacity" true (Cache.over_capacity t);
  Cache.mark_clean t (key 1 0);
  Cache.mark_clean t (key 1 1);
  (* Next insert reclaims clean LRU entries down to capacity. *)
  Cache.insert t (key 1 3) ~dirty:false (block 'd');
  Alcotest.(check bool) "within capacity" true (Cache.length t <= 2 + 1);
  Alcotest.(check bool) "dirty survived" true (Cache.mem t (key 1 2))

let test_fold_dirty_order () =
  let t, _ = make ~capacity_blocks:10 () in
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Cache.insert t (key 2 0) ~dirty:true (block 'b');
  Cache.insert t (key 1 1) ~dirty:false (block 'c');
  Cache.insert t (key 3 0) ~dirty:true (block 'd');
  let keys = Cache.dirty_keys t in
  Alcotest.(check int) "three dirty" 3 (List.length keys);
  (* Oldest first. *)
  Alcotest.(check int) "oldest owner" 1 (List.hd keys).Cache.owner

let test_age_tracking () =
  let t, clock = make () in
  Alcotest.(check (option int)) "no dirty" None (Cache.oldest_dirty_age_us t);
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Clock.advance_us clock 1_000;
  Cache.insert t (key 1 1) ~dirty:true (block 'b');
  Clock.advance_us clock 500;
  (match Cache.oldest_dirty_age_us t with
  | Some age -> Alcotest.(check int) "oldest age" 1_500 age
  | None -> Alcotest.fail "no age");
  Cache.mark_clean t (key 1 0);
  match Cache.oldest_dirty_age_us t with
  | Some age -> Alcotest.(check int) "second age" 500 age
  | None -> Alcotest.fail "no age after clean"

let test_remove_and_drop_clean () =
  let t, _ = make ~capacity_blocks:10 () in
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Cache.insert t (key 1 1) ~dirty:false (block 'b');
  Cache.remove t (key 1 0);
  Alcotest.(check int) "dirty count updated" 0 (Cache.dirty_count t);
  Cache.insert t (key 2 0) ~dirty:true (block 'c');
  Cache.drop_clean t;
  Alcotest.(check bool) "clean dropped" false (Cache.mem t (key 1 1));
  Alcotest.(check bool) "dirty kept" true (Cache.mem t (key 2 0))

let test_insert_never_evicts_self () =
  let t, _ = make ~capacity_blocks:2 () in
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Cache.insert t (key 1 1) ~dirty:true (block 'b');
  Cache.insert t (key 1 2) ~dirty:true (block 'c');
  (* Over capacity with nothing but dirty blocks: the only clean entry
     eviction could pick is the one being inserted.  It must survive —
     evicting the block just fetched would make every subsequent miss on
     it refetch from disk forever. *)
  Cache.insert t (key 2 0) ~dirty:false (block 'd');
  Alcotest.(check bool) "just-inserted clean block survives" true
    (Cache.mem t (key 2 0));
  (* The protection covers only the insert itself: the next clean insert
     picks the older clean block as its victim. *)
  Cache.insert t (key 2 1) ~dirty:false (block 'e');
  Alcotest.(check bool) "newest insert survives" true (Cache.mem t (key 2 1));
  Alcotest.(check bool) "older clean block evicted" false
    (Cache.mem t (key 2 0))

let test_insert_replaces_dirty () =
  let t, _ = make () in
  Cache.insert t (key 1 0) ~dirty:true (block 'a');
  Cache.insert t (key 1 0) ~dirty:false (block 'b');
  Alcotest.(check int) "dirty count drops on replace" 0 (Cache.dirty_count t);
  Cache.insert t (key 1 0) ~dirty:true (block 'c');
  Alcotest.(check int) "dirty again" 1 (Cache.dirty_count t);
  Alcotest.(check int) "no duplicates" 1 (Cache.length t)

(* Random cache histories on an advancing clock, against a reference
   model that keeps each dirty key's dirtying time.  The age of the
   longest-dirty entry is a brute-force fold over the model, so the
   cache's O(1) dirty order must agree with it after every step. *)
type op =
  | Insert of int * bool
  | Mark_dirty of int
  | Mark_clean of int
  | Remove of int
  | Drop_clean
  | Clear

let pp_op = function
  | Insert (k, d) -> Printf.sprintf "insert %d ~dirty:%b" k d
  | Mark_dirty k -> Printf.sprintf "mark_dirty %d" k
  | Mark_clean k -> Printf.sprintf "mark_clean %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Drop_clean -> "drop_clean"
  | Clear -> "clear"

let op_gen =
  QCheck.Gen.(
    let k = int_bound 11 in
    frequency
      [
        (6, map2 (fun k d -> Insert (k, d)) k bool);
        (3, map (fun k -> Mark_dirty k) k);
        (3, map (fun k -> Mark_clean k) k);
        (2, map (fun k -> Remove k) k);
        (1, return Drop_clean);
        (1, return Clear);
      ])

let prop_dirty_age =
  QCheck.Test.make ~name:"cache dirty age matches brute force" ~count:300
    QCheck.(
      make
        ~print:(fun steps ->
          String.concat "; "
            (List.map (fun (op, dt) -> Printf.sprintf "+%d %s" dt (pp_op op))
               steps))
        Gen.(
          small_list
            (map
               (* Small clock steps, often zero, so dirtying times tie. *)
               (fun (op, dt) -> (op, dt * 250))
               (pair op_gen (int_bound 3)))))
    (fun steps ->
      let t, clock = make ~capacity_blocks:6 () in
      let since : (Cache.key, int) Hashtbl.t = Hashtbl.create 16 in
      let check () =
        let now = Clock.now_us clock in
        let expected =
          Hashtbl.fold
            (fun _ s acc ->
              let age = now - s in
              match acc with Some a when a >= age -> acc | _ -> Some age)
            since None
        in
        let model_keys =
          List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) since [])
        in
        Cache.oldest_dirty_age_us t = expected
        && Cache.dirty_count t = Hashtbl.length since
        && List.sort compare (Cache.dirty_keys t) = model_keys
        && List.for_all (Cache.dirty t) model_keys
      in
      List.for_all
        (fun (op, dt) ->
          Clock.advance_us clock dt;
          let now = Clock.now_us clock in
          (match op with
          | Insert (k, dirty) ->
              Cache.insert t (key k 0) ~dirty (block 'x');
              if dirty then Hashtbl.replace since (key k 0) now
              else Hashtbl.remove since (key k 0)
          | Mark_dirty k ->
              if Cache.mem t (key k 0) then begin
                Cache.mark_dirty t (key k 0);
                if not (Hashtbl.mem since (key k 0)) then
                  Hashtbl.replace since (key k 0) now
              end
              else
                assert (
                  try
                    Cache.mark_dirty t (key k 0);
                    false
                  with Not_found -> true)
          | Mark_clean k ->
              Cache.mark_clean t (key k 0);
              Hashtbl.remove since (key k 0)
          | Remove k ->
              Cache.remove t (key k 0);
              Hashtbl.remove since (key k 0)
          | Drop_clean -> Cache.drop_clean t
          | Clear ->
              Cache.clear t;
              Hashtbl.reset since);
          check ())
        steps)

(* ---------- buffer recycling ---------- *)

let test_take_recycles () =
  let t, _ = make ~capacity_blocks:2 () in
  let a = block 'a' and b = block 'b' and c = block 'c' in
  Alcotest.(check bool) "fresh when no spare" true
    (Bytes.length (Cache.take t 16) = 16 && Cache.spare_count t = 0);
  Cache.insert t (key 1 0) ~dirty:false a;
  Cache.insert t (key 2 0) ~dirty:false b;
  Cache.insert t (key 3 0) ~dirty:false c;
  (* [a] was evicted. *)
  Alcotest.(check int) "one spare" 1 (Cache.spare_count t);
  Alcotest.(check bool) "evicted buffer" true (Cache.take t 16 == a);
  Cache.remove t (key 2 0);
  Alcotest.(check bool) "removed buffer" true (Cache.take t 16 == b);
  let d = block 'd' in
  Cache.insert t (key 3 0) ~dirty:true d;
  Alcotest.(check bool) "replaced buffer" true (Cache.take t 16 == c);
  (* The directory-update idiom: edit the found buffer, re-insert it. *)
  (match Cache.find t (key 3 0) with
  | Some found ->
      Bytes.set found 0 'e';
      Cache.insert t (key 3 0) ~dirty:true found
  | None -> Alcotest.fail "lost");
  Alcotest.(check int) "re-insert recycles nothing" 0 (Cache.spare_count t);
  Alcotest.(check bool) "live buffer not handed out" true
    (Cache.take t 16 != d);
  Cache.insert t (key 4 0) ~dirty:false a;
  Cache.drop_clean t;
  Alcotest.(check int) "drop_clean recycles clean entries only" 1
    (Cache.spare_count t);
  Alcotest.(check bool) "a spare of another size is not used" true
    (Cache.take t 32 != a && Cache.spare_count t = 1);
  Alcotest.(check bool) "dropped buffer" true (Cache.take t 16 == a)

(* Random cache traffic with every new block taken from the cache, as
   the file systems do: [take] never hands out the buffer of an entry
   still cached (clean or dirty), and the spare list never outgrows the
   capacity. *)
type rop =
  | R_insert of int * bool
  | R_reinsert of int
  | R_remove of int
  | R_mark_clean of int
  | R_drop_clean

let prop_take_never_live =
  let capacity = 3 in
  QCheck.Test.make ~name:"take never returns a live buffer" ~count:300
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 80)
            (let k = int_bound 6 in
             frequency
               [
                 (5, map2 (fun k d -> R_insert (k, d)) k bool);
                 (2, map (fun k -> R_reinsert k) k);
                 (2, map (fun k -> R_remove k) k);
                 (2, map (fun k -> R_mark_clean k) k);
                 (1, return R_drop_clean);
               ])))
    (fun ops ->
      let t, _ = make ~capacity_blocks:capacity () in
      let bufs : (int, bytes) Hashtbl.t = Hashtbl.create 8 in
      let live b =
        Hashtbl.fold
          (fun k b' acc -> acc || (b' == b && Cache.mem t (key k 0)))
          bufs false
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | R_insert (k, dirty) ->
                let b = Cache.take t 16 in
                let fresh = not (live b) in
                Bytes.fill b 0 16 (Char.chr (65 + k));
                Cache.insert t (key k 0) ~dirty b;
                Hashtbl.replace bufs k b;
                fresh
            | R_reinsert k ->
                (match Cache.find t (key k 0) with
                | Some b -> Cache.insert t (key k 0) ~dirty:true b
                | None -> ());
                true
            | R_remove k ->
                Cache.remove t (key k 0);
                true
            | R_mark_clean k ->
                Cache.mark_clean t (key k 0);
                true
            | R_drop_clean ->
                Cache.drop_clean t;
                true
          in
          (* Every cached block still holds the bytes it was given. *)
          let intact =
            Hashtbl.fold
              (fun k _ acc ->
                acc
                &&
                match Cache.find t (key k 0) with
                | Some b -> Bytes.get b 0 = Char.chr (65 + k)
                | None -> true)
              bufs true
          in
          ok && intact && Cache.spare_count t <= capacity)
        ops)

let suite =
  [
    Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "dirty lifecycle" `Quick test_dirty_lifecycle;
    Alcotest.test_case "only clean entries evicted" `Quick
      test_clean_eviction_only;
    Alcotest.test_case "fold_dirty order" `Quick test_fold_dirty_order;
    Alcotest.test_case "age tracking" `Quick test_age_tracking;
    Alcotest.test_case "remove and drop_clean" `Quick test_remove_and_drop_clean;
    Alcotest.test_case "insert replaces dirty state" `Quick
      test_insert_replaces_dirty;
    Alcotest.test_case "insert never evicts its own key" `Quick
      test_insert_never_evicts_self;
    QCheck_alcotest.to_alcotest prop_dirty_age;
    Alcotest.test_case "take recycles buffers that left" `Quick
      test_take_recycles;
    QCheck_alcotest.to_alcotest prop_take_never_live;
  ]
