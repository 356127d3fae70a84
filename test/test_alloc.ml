(* Host allocation budgets of the small-file path, of cold reads and of
   segment cleaning.

   Allocated words are deterministic for a given build, so they can be
   gated tightly.  Small files: a fixed §5.1-style loop — 2,000 creates
   and writes of ~1 KB files over 20 directories, a sync, a cache flush,
   cold reads, then deletes and a sync — must stay under a
   words-per-file-op budget.  The budget is about 1.5x what the loop
   costs now (~525 words per op on OCaml 5.1, with the cache recycling
   its block buffers; ~705 without), so the gain from the O(1)
   write-back age, in-place directory blocks, copy-free block
   forwarding and buffer recycling cannot silently go away: without
   the first three the same loop cost ~3,260 words per op.  Cold reads
   and cleaning are gated on their own (below).  Host numbers only:
   nothing simulated is asserted here. *)

open Common
module Fs = Lfs_core.Fs

let files = 2_000
let dirs = 20

(* Words allocated so far: minor-heap words plus words allocated
   directly in the major heap (large blocks).  Promoted words were
   already counted as minor. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let budget_words_per_op = 800.

let test_small_file_budget () =
  let fs =
    make_lfs ~size_bytes:(40 * 1024 * 1024) ~config:Lfs_core.Config.default ()
  in
  let dir d = Printf.sprintf "/d%02d" d in
  for d = 0 to dirs - 1 do
    check_ok "mkdir" (Fs.mkdir fs (dir d))
  done;
  Fs.sync fs;
  (* Inputs are built before the measured window. *)
  let paths =
    Array.init files (fun i ->
        Printf.sprintf "%s/f%04d" (dir (i / (files / dirs))) i)
  in
  let data =
    Array.init files (fun i -> Bytes.make (600 + (i * 97 mod 900)) 'x')
  in
  let before = allocated_words () in
  Array.iteri (fun i path -> write_file fs path data.(i)) paths;
  Fs.sync fs;
  Fs.flush_caches fs;
  Array.iteri
    (fun i path ->
      ignore
        (check_ok "read"
           (Fs.read fs path ~off:0 ~len:(Bytes.length data.(i)))))
    paths;
  Array.iter (fun path -> check_ok "delete" (Fs.delete fs path)) paths;
  Fs.sync fs;
  let words = allocated_words () -. before in
  (* One op per file per phase: create+write, read, delete. *)
  let per_op = words /. float_of_int (3 * files) in
  if per_op > budget_words_per_op then
    Alcotest.failf "%.0f words per op, budget %.0f" per_op budget_words_per_op

(* Host allocation budget of segment cleaning.  A fixed overwrite loop
   on a 24 MB disk with the default 1 MB segments leaves two files in
   three dead in most segments; one explicit cleaning run then frees
   them (11 segments).  The budget is about 1.5x what a cleaned segment
   costs now (~42,000 words on OCaml 5.1: summary decoding, relocation
   and the metadata flush), so reading each victim into a fresh 1 MB
   buffer again — 131,000 words a segment; the loop cost ~165,000 words
   per segment that way — fails it.  Host numbers only. *)
let clean_files = 1_600
let budget_words_per_cleaned_segment = 63_000.

let test_cleaning_budget () =
  let config =
    { Lfs_core.Config.default with Lfs_core.Config.auto_clean = false }
  in
  let fs = make_lfs ~size_bytes:(24 * 1024 * 1024) ~config () in
  for d = 0 to dirs - 1 do
    check_ok "mkdir" (Fs.mkdir fs (Printf.sprintf "/d%02d" d))
  done;
  let path i = Printf.sprintf "/d%02d/f%04d" (i mod dirs) i in
  for i = 0 to clean_files - 1 do
    write_file fs (path i) (Bytes.make 4096 'a')
  done;
  Fs.sync fs;
  (* Overwrite two files in three, in a fixed scattered order. *)
  let overwrite = Bytes.make 4096 'b' in
  for k = 0 to clean_files - 1 do
    let i = k * 7 mod clean_files in
    if i mod 3 <> 0 then
      check_ok "overwrite" (Fs.write fs (path i) ~off:0 overwrite)
  done;
  Fs.sync fs;
  let cleaned0 = lfs_counter fs "segments_cleaned" in
  let before = allocated_words () in
  ignore (Fs.clean_now ~target:max_int fs : int);
  let words = allocated_words () -. before in
  let cleaned = lfs_counter fs "segments_cleaned" - cleaned0 in
  if cleaned < 8 then Alcotest.failf "only %d segments cleaned" cleaned;
  let per_segment = words /. float_of_int cleaned in
  if per_segment > budget_words_per_cleaned_segment then
    Alcotest.failf "%.0f words per cleaned segment, budget %.0f" per_segment
      budget_words_per_cleaned_segment

(* Host allocation budget of a cold read.  1,200 files of ~1 KB in 20
   directories on a 256-block cache, so the cache is full and evicting
   when the reads start; then a sync, a cache flush and one read of each
   file.  Each read fills the file's data block (and now and then an
   inode or directory block) into a buffer the cache recycled; a read
   costs ~470 words on OCaml 5.1 (the result, the path, the request and
   the cache bookkeeping).  The budget is about 1.5x that, so allocating
   a fresh 4 KB block per fill again fails it: the loop then cost ~1,010
   words per read.  Host numbers only. *)
let cold_files = 1_200
let budget_words_per_cold_read = 700.

let test_cold_read_budget () =
  let config =
    { Lfs_core.Config.default with Lfs_core.Config.cache_blocks = 256 }
  in
  let fs = make_lfs ~size_bytes:(40 * 1024 * 1024) ~config () in
  let dir d = Printf.sprintf "/d%02d" d in
  for d = 0 to dirs - 1 do
    check_ok "mkdir" (Fs.mkdir fs (dir d))
  done;
  let paths =
    Array.init cold_files (fun i ->
        Printf.sprintf "%s/f%04d" (dir (i mod dirs)) i)
  in
  let sizes = Array.init cold_files (fun i -> 600 + (i * 97 mod 900)) in
  Array.iteri
    (fun i path -> write_file fs path (Bytes.make sizes.(i) 'x'))
    paths;
  Fs.sync fs;
  Fs.flush_caches fs;
  let before = allocated_words () in
  Array.iteri
    (fun i path ->
      ignore (check_ok "read" (Fs.read fs path ~off:0 ~len:sizes.(i))))
    paths;
  let words = allocated_words () -. before in
  let per_read = words /. float_of_int cold_files in
  if per_read > budget_words_per_cold_read then
    Alcotest.failf "%.0f words per cold read, budget %.0f" per_read
      budget_words_per_cold_read

let suite =
  [
    Alcotest.test_case "small-file loop within allocation budget" `Quick
      test_small_file_budget;
    Alcotest.test_case "cleaning within allocation budget" `Quick
      test_cleaning_budget;
    Alcotest.test_case "cold reads within allocation budget" `Quick
      test_cold_read_budget;
  ]
