(* The repo benchmark: one workload per run, repeated on fresh simulated
   hardware until the time budget is spent.

     main.exe --workload small-files|steady-overwrite|mixed-clients
              --seed N --seconds S --trace 0|1

   --trace 0 reports the end-to-end metrics; --trace 1 alternates
   untraced and traced iterations and reports the per-layer metrics.
   The last line of standard output is the result object; a run whose
   outputs are wrong prints no result and exits 1. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload small-files|steady-overwrite|mixed-clients \
     --seed N --seconds S --trace 0|1";
  exit 2

exception Check_failed of string

let check_failed fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

type summary = {
  traced : bool;
  setup_s : float list;  (** the iteration's set-up, then the extra ones *)
  sim : (string * float) list;
  host : (string * float) list;
  layers : (string * float) list;
  counts : (string * int) list;
  record : (string * string) list;
  host_window_s : float;
}

let summarize w ~seed ~traced size =
  (* Free the previous iteration's media first, so the heap peak is one
     iteration's. *)
  Gc.full_major ();
  let it = Workloads.run w ~seed ~traced size in
  let p = it.Workloads.probe in
  if p.Probe.nproblems > 0 then
    check_failed "%d wrong output(s), first: %s" p.Probe.nproblems
      (String.concat "; " (List.rev p.Probe.problems));
  {
    traced;
    setup_s = [ it.Workloads.setup_s ];
    sim = Report.sim_e2e it;
    host = Report.host_e2e it;
    layers = Report.layers it;
    counts = Report.sample_counts it;
    record = it.Workloads.record;
    host_window_s = p.Probe.host_ns /. 1e9;
  }

let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else check_failed "non-finite metric value %f" x

let json_string s = Printf.sprintf "%S" s

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (number value) (json_string unit))
         ms)
  ^ "}"

let median_of f summaries = Stats.median (List.map f summaries)

(* The traced and untraced iterations must agree on every simulated
   metric, and the untraced ones on allocation: the bus must not move
   the simulated clock, and the program is deterministic. *)
let self_check summaries =
  match summaries with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun s ->
          List.iter2
            (fun (name, a) (_, b) ->
              if a <> b then
                check_failed "%s differs between iterations (%s vs %s%s)" name
                  (number a) (number b)
                  (if s.traced <> first.traced then ", traced vs untraced" else ""))
            first.sim s.sim)
        rest;
      let allocs =
        List.filter_map
          (fun s ->
            if s.traced then None
            else Some (List.assoc "host_alloc_words_per_op" s.host))
          summaries
      in
      (match allocs with
      | a :: more ->
          List.iter
            (fun b ->
              if a <> b then
                check_failed
                  "host_alloc_words_per_op differs between untraced iterations \
                   (%s vs %s)"
                  (number a) (number b))
            more
      | [] -> ())

let e2e_metrics untraced =
  let first = List.hd untraced in
  let unit name = List.assoc name Report.units in
  [ ("setup_s", Stats.median (List.concat_map (fun s -> s.setup_s) untraced), "s") ]
  @ List.map (fun (name, v) -> (name, v, unit name)) first.sim
  @ List.map
      (fun (name, _) ->
        (name, median_of (fun s -> List.assoc name s.host) untraced, unit name))
      first.host
  @ [ ("host_peak_heap_mb", Host.peak_heap_mb (), "MB") ]

(* Printed with the end-to-end metrics but reported per layer, where no
   bound applies: on a shared machine the host rate drifts by 20-30 %
   over minutes, more than any bound allows. *)
let drifting = [ "host_ops_per_s" ]

let layer_metrics untraced traced =
  let first = List.hd traced in
  List.map
    (fun (name, _) ->
      let from = if Report.untraced_layer name then untraced else traced in
      (name, median_of (fun s -> List.assoc name s.layers) from, Report.layer_unit name))
    first.layers
  @ [
      ( "trace.overhead_ratio",
        median_of (fun s -> s.host_window_s) traced
        /. median_of (fun s -> s.host_window_s) untraced,
        "ratio" );
    ]

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, value, unit) -> Printf.printf "  %-34s %18.6g %s\n" name value unit)
    ms

let run ~workload ~seed ~seconds ~trace =
  let size = Workloads.full workload in
  let t0 = Host.now_ns () in
  let rec loop acc n =
    let traced = trace && n mod 2 = 1 in
    let s = summarize workload ~seed ~traced size in
    (* Each extra set-up starts, like an iteration, from a collected
       heap, with the previous media freed. *)
    let again () =
      Gc.full_major ();
      Workloads.setup_again workload ~seed size
    in
    let s =
      { s with setup_s = s.setup_s @ List.init (Workloads.setup_repeats workload) (fun _ -> again ()) }
    in
    Printf.eprintf "[perfbench] %s iteration %d%s: setup %.3f s (median of %d), %.0f ops/s host; %.2f s elapsed\n%!"
      (Workloads.name workload) (n + 1)
      (if traced then " (traced)" else "")
      (Stats.median s.setup_s) (List.length s.setup_s) (List.assoc "host_ops_per_s" s.host)
      ((Host.now_ns () -. t0) /. 1e9);
    let acc = s :: acc and n = n + 1 in
    let elapsed = (Host.now_ns () -. t0) /. 1e9 in
    let enough = if trace then n mod 2 = 0 else n >= 3 in
    if enough && elapsed >= float_of_int seconds then List.rev acc
    else loop acc n
  in
  let summaries = loop [] 0 in
  self_check summaries;
  let untraced = List.filter (fun s -> not s.traced) summaries in
  let traced = List.filter (fun s -> s.traced) summaries in
  let e2e = e2e_metrics untraced in
  let first = List.hd untraced in
  let count name = List.assoc name first.counts in
  let attempted = count "ops" and failed = count "failed" in
  let is_drifting (name, _, _) = List.mem name drifting in
  let reported =
    if trace then layer_metrics untraced traced @ List.filter is_drifting e2e
    else List.filter (fun m -> not (is_drifting m)) e2e
  in
  let result =
    Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      attempted failed (metrics_json reported)
  in
  print_table
    (Printf.sprintf "%s seed %d: end to end, %d untraced iteration(s), %d ops, %d reads, %d writes each"
       (Workloads.name workload) seed (List.length untraced) attempted
       (count "reads") (count "writes"))
    (e2e @ [ ("op_fail_ratio", Stats.ratio (float_of_int failed) (float_of_int attempted), "ratio") ]);
  if trace then print_table "per layer (traced run)" reported;
  Printf.printf "{\"workload\": %s, \"seed\": %d, \"held_out_seed\": %d, \"iterations\": %d, \
                 \"record\": {%s}, \"samples\": {%s}}\n"
    (json_string (Workloads.name workload)) seed Workloads.held_out_seed
    (List.length summaries)
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_string v)) first.record))
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %d" (json_string k) v) first.counts));
  print_endline result

let () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let int_arg r v = match int_of_string_opt v with Some n -> r := Some n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match Workloads.of_name v with Some w -> workload := Some w | None -> usage ());
        parse rest
    | "--seed" :: v :: rest -> int_arg seed v; parse rest
    | "--seconds" :: v :: rest -> int_arg seconds v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0 -> (
      try run ~workload ~seed ~seconds ~trace with
      | Check_failed msg ->
          Printf.eprintf "[perfbench] FAILED: %s\n" msg;
          exit 1
      | Lfs_workload.Driver.Benchmark_failure msg ->
          Printf.eprintf "[perfbench] FAILED: %s\n" msg;
          exit 1)
  | _ -> usage ()
