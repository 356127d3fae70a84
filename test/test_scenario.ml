(* The scenario DSL itself: deterministic stream compilation, the
   delta-debugging shrinker (pure and end-to-end with a planted
   invariant violation), replay-line stability, spec validation, and
   the engine-mode compilation path. *)

module Scenario = Lfs_scenario.Scenario
module Driver = Lfs_workload.Driver
module Op = Lfs_workload.Op

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let fail_failure = function
  | None -> ()
  | Some f ->
      Alcotest.failf "%s\nreplay: %s" f.Scenario.message f.Scenario.replay

(* ---------- shrinker, pure oracle ---------- *)

let test_shrink_pure () =
  let items = List.init 20 (fun i -> i) in
  let fails l = if List.mem 3 l && List.mem 7 l then Some "pair" else None in
  Alcotest.(check (list int)) "minimal pair" [ 3; 7 ]
    (Scenario.shrink ~fails items);
  Alcotest.(check (list int)) "non-failing input unchanged" items
    (Scenario.shrink ~fails:(fun _ -> None) items);
  let single l = if List.mem 13 l then Some "one" else None in
  Alcotest.(check (list int)) "single cause" [ 13 ]
    (Scenario.shrink ~fails:single items)

(* ---------- stream compilation ---------- *)

let test_steps_deterministic () =
  let render spec = List.map Op.to_string (Scenario.steps_of spec) in
  let spec = Scenario.(make |> seed 99) in
  Alcotest.(check (list string)) "same spec, same steps" (render spec)
    (render spec);
  if render spec = render Scenario.(make |> seed 100) then
    Alcotest.fail "different seeds produced identical streams";
  Alcotest.(check int) "count honoured" 24
    (List.length (Scenario.steps_of Scenario.(make |> count 24 |> seed 3)))

(* ---------- clean runs ---------- *)

let test_clean_stream () =
  let r =
    Scenario.(make |> seed 7 |> invariant ~name:"fsck" fsck |> run)
  in
  fail_failure r.Scenario.failure;
  Alcotest.(check string) "mode" "stream" r.Scenario.mode;
  Alcotest.(check int) "all ops ran" 48 r.Scenario.stats.Scenario.ops_run

let test_engine_mode () =
  let r =
    Scenario.(
      make |> system `Lfs
      |> ops [ Read 4; Overwrite 3; Create 2; Delete 1 ]
      |> clients 3 |> count 90
      |> think (Uniform (1_000, 10_000))
      |> invariant ~name:"fsck" fsck
      |> seed 11 |> run)
  in
  fail_failure r.Scenario.failure;
  Alcotest.(check string) "mode" "engine" r.Scenario.mode;
  match r.Scenario.engine with
  | None -> Alcotest.fail "engine scenario produced no engine result"
  | Some e ->
      Alcotest.(check int) "clients" 3 e.Lfs_workload.Engine.clients;
      Alcotest.(check int) "total ops" 90 e.Lfs_workload.Engine.total_ops

(* ---------- planted failure: shrink + replay determinism ---------- *)

(* The planted invariant rejects any surviving root entry, so any
   scenario that creates anything fails it — and the minimal
   counterexample is a single root-level create/mkdir. *)
let empty_root inst =
  match Driver.readdir inst "/" with
  | [] -> []
  | l -> [ Printf.sprintf "root holds %d entries" (List.length l) ]

let planted_spec s =
  Scenario.(
    make |> count 24 |> seed s
    |> invariant ~name:"planted-empty-root" empty_root)

let op =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Op.to_string o))
    ( = )

(* The printed counterexample is replayable: its steps parse back to
   exactly the ops a shrink over a plain replay of the stream finds. *)
let check_replayable (f : Scenario.failure) spec =
  let parsed =
    List.map
      (fun s ->
        match Op.of_string s with Ok o -> o | Error e -> Alcotest.fail e)
      f.Scenario.steps
  in
  let fails ops =
    let inst =
      Lfs_vfs.Fs_intf.Instance ((module Lfs_core.Fs), Common.make_lfs ())
    in
    List.iter (fun o -> ignore (Op.run inst o)) ops;
    match empty_root inst with [] -> None | v :: _ -> Some v
  in
  Alcotest.(check (list op)) "steps parse back to the shrunk ops"
    (Scenario.shrink ~fails (Scenario.steps_of spec))
    parsed

let test_shrinker_deterministic () =
  let r1 = Scenario.run (planted_spec 4242) in
  let r2 = Scenario.run (planted_spec 4242) in
  match (r1.Scenario.failure, r2.Scenario.failure) with
  | Some f1, Some f2 ->
      Alcotest.(check (list string)) "same minimal counterexample"
        f1.Scenario.steps f2.Scenario.steps;
      Alcotest.(check int) "shrunk to a single op" 1 f1.Scenario.shrunk_steps;
      Alcotest.(check int) "from the full stream" 24 f1.Scenario.original_steps;
      Alcotest.(check string) "same message" f1.Scenario.message
        f2.Scenario.message;
      Alcotest.(check string) "same replay line" f1.Scenario.replay
        f2.Scenario.replay;
      Alcotest.(check string) "byte-identical reports" (Scenario.render r1)
        (Scenario.render r2);
      check_replayable f1 (planted_spec 4242);
      if not (contains f1.Scenario.replay "--replay 4242") then
        Alcotest.failf "replay line lacks the seed: %s" f1.Scenario.replay
  | _ -> Alcotest.fail "planted invariant did not fail the scenario"

(* A read-back shrink ends on the failure it found.  Each run below
   fails only the planted invariant; a shrunk list that loses the mkdir
   a later create needs (seed 10 meets one), or that injects no read
   fault (seed 5), must not pass for a reproduction of it. *)
let test_read_back_shrink () =
  List.iter
    (fun s ->
      let spec =
        Scenario.(
          make |> read_back
          |> faults [ Transient { rate = 0.1; burst = 1 } ]
          |> count 8 |> seed s
          |> invariant ~name:"planted-empty-root" empty_root)
      in
      match (Scenario.run spec).Scenario.failure with
      | None -> Alcotest.failf "seed %d: planted invariant did not fail" s
      | Some f ->
          if not (contains f.Scenario.message "planted-empty-root") then
            Alcotest.failf "seed %d: shrink ended on %S (steps: %s)" s
              f.Scenario.message
              (String.concat " " f.Scenario.steps))
    [ 5; 6; 7; 8; 10 ];
  (* Read errors the retries cannot absorb stay a violation. *)
  let exhausted =
    Scenario.(
      make |> read_back
      |> faults [ Transient { rate = 1.0; burst = 8 } ]
      |> count 8 |> seed 6 |> run)
  in
  match exhausted.Scenario.failure with
  | Some f when contains f.Scenario.message "Read_failed" -> ()
  | Some f -> Alcotest.failf "exhausted retries reported as %S" f.Scenario.message
  | None -> Alcotest.fail "exhausted retries passed"

(* ---------- replay line + validation ---------- *)

let test_replay_line () =
  Alcotest.(check string) "non-default flags rendered"
    "lfstool scenario --system ffs --count 10 --clients 2 --replay 9"
    (Scenario.replay_command
       Scenario.(make |> system `Ffs |> count 10 |> clients 2 |> seed 9));
  Alcotest.(check string) "mix round-trips"
    (Scenario.mix_to_string Scenario.default_mix)
    (Scenario.mix_to_string
       (Scenario.mix_of_string (Scenario.mix_to_string Scenario.default_mix)))

let test_invalid_spec () =
  let rejects what spec =
    match Scenario.run spec with
    | exception Driver.Benchmark_failure _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "sweep+clients" Scenario.(make |> crash_sweep |> clients 2);
  rejects "read_back without Transient" Scenario.(make |> read_back);
  rejects "whole-run Bad_sectors"
    Scenario.(make |> faults [ Bad_sectors [ 1 ] ]);
  rejects "zero-weight mix" Scenario.(make |> ops [ Create 0 ]);
  rejects "ffs bad-sector mode"
    Scenario.(make |> system `Ffs |> faults [ Checkpoint_bad_sector ])

let suite =
  [
    Alcotest.test_case "shrink: pure oracle" `Quick test_shrink_pure;
    Alcotest.test_case "steps_of is deterministic" `Quick
      test_steps_deterministic;
    Alcotest.test_case "clean stream run" `Quick test_clean_stream;
    Alcotest.test_case "engine-mode compilation" `Quick test_engine_mode;
    Alcotest.test_case "planted failure shrinks deterministically" `Quick
      test_shrinker_deterministic;
    Alcotest.test_case "read-back shrink keeps its failure" `Quick
      test_read_back_shrink;
    Alcotest.test_case "replay line + mix round-trip" `Quick test_replay_line;
    Alcotest.test_case "invalid specs are rejected" `Quick test_invalid_spec;
  ]
