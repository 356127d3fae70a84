(* The host clocks the benchmark reads from outside the program: wall
   time and allocated words.

   Wall time comes from Bechamel's monotonic clock (nanoseconds), so no
   code here names Unix or Sys.time.  Allocation is minor words plus
   words allocated directly in the major heap; blocks larger than the
   minor-heap limit (every 4 KB data block) bypass the minor heap, so
   [Gc.minor_words] alone would miss them.  Promoted words are counted
   once, at their minor allocation.  The minor count comes from
   [Gc.minor_words], which is exact; the minor field of [Gc.counters]
   drifts between identical runs on OCaml 5.1. *)

let now_ns () = Bechamel.Toolkit.Monotonic_clock.get ()

let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words that one [alloc_words]/[now_ns] bracket allocates by itself
   (the boxed results).  [span] subtracts it, so an empty interval reads
   exactly zero. *)
let bracket_overhead =
  let w0 = alloc_words () in
  let t0 = now_ns () in
  let t1 = now_ns () in
  let w1 = alloc_words () in
  ignore (Sys.opaque_identity (t1 -. t0));
  w1 -. w0

type span = { ns : float; words : float }

(* Host cost of [f ()]: nanoseconds and words, with the bracket's own
   allocation removed. *)
let span f =
  let w0 = alloc_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = alloc_words () in
  (r, { ns = t1 -. t0; words = w1 -. w0 -. bracket_overhead })

let word_bytes = Sys.word_size / 8

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * word_bytes)
  /. (1024.0 *. 1024.0)
