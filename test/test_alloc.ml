(* Host allocation budget of the small-file path.

   Allocated words are deterministic for a given build, so they can be
   gated tightly: a fixed §5.1-style loop — 2,000 creates and writes of
   ~1 KB files over 20 directories, a sync, a cache flush, cold reads,
   then deletes and a sync — must stay under a words-per-file-op budget.
   The budget is about 1.5x what the loop costs now (~780 words per op on
   OCaml 5.1), so the gain from the O(1) write-back age, in-place
   directory blocks and copy-free block forwarding cannot silently go
   away: without them the same loop cost ~3,260 words per op, nearly
   three times the budget.  Host numbers only: nothing simulated is
   asserted here. *)

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

let budget_words_per_op = 1_150.

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

let suite =
  [
    Alcotest.test_case "small-file loop within allocation budget" `Quick
      test_small_file_budget;
  ]
