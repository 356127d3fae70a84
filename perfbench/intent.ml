(* Workload-intent assertions: on a short run of each workload, the
   layers each one is meant to load are the ones it loads.  A resize
   that quietly erases the split between layers fails here.

   - the cleaner never runs on small-files and does run on
     steady-overwrite;
   - the cache hit ratio is higher on mixed-clients than in the
     small-files read phase (whose reads must stay cold);
   - the request queue is deeper than one only on mixed-clients. *)

open Perfbench

let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let run w =
  let it = Workloads.run w ~seed:1 ~traced:false (Workloads.short w) in
  let p = it.Workloads.probe in
  expect
    (Printf.sprintf "%s: outputs correct (%d problem(s))" (Workloads.name w)
       p.Probe.nproblems)
    (p.Probe.nproblems = 0);
  (it, p)

let () =
  let small, small_p = run Workloads.Small_files in
  let _, steady_p = run Workloads.Steady_overwrite in
  let _, mixed_p = run Workloads.Mixed_clients in
  let cleaned p = Probe.counter p "lfs.segments_cleaned" in
  let depth p = Probe.hist_mean p "io.queue.depth" in
  let hit_ratio p =
    let h = float_of_int (Probe.counter p "cache.hits") in
    Stats.ratio h (h +. float_of_int (Probe.counter p "cache.misses"))
  in
  expect
    (Printf.sprintf "small-files cleans no segment (%d)" (cleaned small_p))
    (cleaned small_p = 0);
  expect
    (Printf.sprintf "steady-overwrite cleans segments (%d)" (cleaned steady_p))
    (cleaned steady_p > 0);
  expect
    (Printf.sprintf "mixed-clients hit ratio %.3f > small-files read phase %.3f"
       (hit_ratio mixed_p) small.Workloads.read_phase_hit_ratio)
    (hit_ratio mixed_p > small.Workloads.read_phase_hit_ratio);
  expect
    (Printf.sprintf "queue depth > 1 only on mixed-clients (%.2f, %.2f, %.2f)"
       (depth small_p) (depth steady_p) (depth mixed_p))
    (depth mixed_p > 1.0 && depth small_p <= 1.0 && depth steady_p <= 1.0);
  if !failures > 0 then exit 1
