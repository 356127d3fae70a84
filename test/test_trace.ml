(* The trace substrate and the op vocabulary: generation properties, the
   op text form, replay. *)

module W = Lfs_workload
module Trace = Lfs_workload.Trace
module Op = Lfs_workload.Op
module Model_fs = Lfs_scenario.Model_fs

let qcheck = QCheck_alcotest.to_alcotest

let test_generation_well_formed () =
  let ops = Trace.generate ~seed:1 ~config:{ Trace.default_gen with Trace.events = 2_000; target_live = 300 } () in
  (* Replay against the pure model: a well-formed trace never produces a
     failing operation. *)
  let model = Model_fs.create () in
  List.iteri
    (fun i op ->
      if Result.is_error (Model_fs.apply model op) then
        Alcotest.failf "op %d (%s) fails on the model" i (Op.to_string op))
    ops

let test_generation_mix () =
  let ops =
    Trace.generate ~seed:7
      ~config:{ Trace.default_gen with Trace.events = 5_000; target_live = 500 }
      ()
  in
  let writes = ref 0 and reads = ref 0 and small = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Op.Write { len; _ } ->
          incr writes;
          if len <= 8192 then incr small
      | Op.Read _ -> incr reads
      | _ -> ())
    ops;
  (* The office/engineering profile: mostly small files, plenty of
     reads. *)
  Alcotest.(check bool) "mostly small files" true
    (float_of_int !small > 0.7 *. float_of_int !writes);
  Alcotest.(check bool) "reads happen" true (!reads > 1000)

let op_gen =
  let open QCheck.Gen in
  let path = map (fun l -> "/" ^ String.concat "/" l) (list_size (int_range 1 3) (oneofl [ "a"; "b"; "dir000"; "f000001" ])) in
  let size = int_bound 100_000 in
  oneof
    [
      map (fun p -> Op.Mkdir p) path;
      map (fun p -> Op.Create p) path;
      map4 (fun path off seed len -> Op.Write { path; off; seed; len }) path size int size;
      map3 (fun path seed len -> Op.Append { path; seed; len }) path int size;
      map (fun path -> Op.Read { path; range = None }) path;
      map3 (fun path off len -> Op.Read { path; range = Some (off, len) }) path size size;
      map2 (fun path size -> Op.Truncate { path; size }) path size;
      map2 (fun src dst -> Op.Rename { src; dst }) path path;
      map2 (fun src dst -> Op.Link { src; dst }) path path;
      map (fun p -> Op.Readdir p) path;
      map (fun p -> Op.Delete p) path;
      pure Op.Sync;
      pure Op.Flush;
    ]

let prop_op_roundtrip =
  QCheck.Test.make ~name:"op text roundtrip" ~count:500
    (QCheck.make ~print:Op.to_string op_gen)
    (fun op -> Op.of_string (Op.to_string op) = Ok op)

let test_op_grammar () =
  let parses tok op =
    Alcotest.(check bool) tok true (Op.of_string tok = Ok op)
  in
  (* Optional trailing fields take their defaults. *)
  parses "write:/t:8192" (Op.Write { path = "/t"; off = 0; seed = 7; len = 8192 });
  parses "write:/t:10:3" (Op.Write { path = "/t"; off = 0; seed = 3; len = 10 });
  parses "append:/t:10" (Op.Append { path = "/t"; seed = 7; len = 10 });
  parses "read:/t" (Op.Read { path = "/t"; range = None });
  parses "read:/t:10" (Op.Read { path = "/t"; range = Some (0, 10) });
  (* Malformed text is an [Error], never an exception. *)
  List.iter
    (fun tok ->
      match Op.of_string tok with
      | Error _ -> ()
      | Ok op -> Alcotest.failf "%S parsed as %s" tok (Op.to_string op)
      | exception e -> Alcotest.failf "%S raised %s" tok (Printexc.to_string e))
    [
      "C /x abc"; "C /x -5"; "write:/x:abc"; "write:/x:-5"; "write:/x:5:1:-1";
      "write:/x:5:1:2:3"; "read:/x:-1"; "read:/x:4:-2"; "truncate:/x:-1";
      "append:/x"; "rename:/x"; "sync:now"; "";
    ];
  match Op.of_lines "mkdir:/d\n\ncreate:/d/f\nwrite:/d/f:x\n" with
  | Error e ->
      Alcotest.(check bool) ("line number in " ^ e) true
        (String.length e > 7 && String.sub e 0 7 = "line 4:")
  | Ok _ -> Alcotest.fail "of_lines accepted a bad line"

let test_replay_both_systems () =
  let ops =
    Trace.generate ~seed:3
      ~config:{ Trace.default_gen with Trace.events = 800; target_live = 150; dirs = 5 }
      ()
  in
  let results =
    List.map (fun inst -> Trace.replay inst ops) (W.Setup.both ~disk_mb:32 ())
  in
  match results with
  | [ lfs; ffs ] ->
      Alcotest.(check int) "same ops" lfs.Trace.ops ffs.Trace.ops;
      Alcotest.(check int) "same bytes written" lfs.Trace.bytes_written
        ffs.Trace.bytes_written;
      Alcotest.(check int) "same bytes read" lfs.Trace.bytes_read
        ffs.Trace.bytes_read;
      (* The headline: LFS is faster end to end on the mixed workload. *)
      Alcotest.(check bool) "LFS faster overall" true
        (lfs.Trace.ops_per_sec > ffs.Trace.ops_per_sec)
  | _ -> Alcotest.fail "expected two systems"

let suite =
  [
    Alcotest.test_case "generated traces are well-formed" `Quick
      test_generation_well_formed;
    Alcotest.test_case "workload mix" `Quick test_generation_mix;
    qcheck prop_op_roundtrip;
    Alcotest.test_case "op grammar and typed parse errors" `Quick
      test_op_grammar;
    Alcotest.test_case "replay on both systems" `Slow test_replay_both_systems;
  ]
