(* Model-based testing: random operation sequences run simultaneously
   against a file system and the pure reference model; every result and
   the final tree must agree.  Run on both LFS and FFS.

   A second property crashes LFS at random points and checks recovery
   invariants. *)

module E = Lfs_vfs.Errors
module Fs_intf = Lfs_vfs.Fs_intf
module Model_fs = Lfs_scenario.Model_fs
module Op = Lfs_workload.Op

let qcheck = QCheck_alcotest.to_alcotest

(* Deep-fuzz sessions can crank the case counts without recompiling:
   MODEL_COUNT=500 dune exec test/test_main.exe -- test model *)
let count default =
  match Sys.getenv_opt "MODEL_COUNT" with
  | Some s -> (try int_of_string s with _ -> default)
  | None -> default

(* Operations over a tiny namespace so that collisions, nesting and
   errors all get exercised. *)

let op_gen_to ~max_off =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "d"; "e" ] in
  let path =
    map (fun l -> "/" ^ String.concat "/" l) (list_size (int_range 1 3) name)
  in
  frequency
    [
      (4, map (fun p -> Op.Create p) path);
      (2, map (fun p -> Op.Mkdir p) path);
      (3, map (fun p -> Op.Delete p) path);
      ( 6,
        map4
          (fun path off seed len -> Op.Write { path; off; seed; len })
          path (int_bound max_off) nat (int_bound 4000) );
      ( 2,
        map3
          (fun path seed len -> Op.Append { path; seed; len })
          path nat (int_bound 4000) );
      ( 4,
        map3
          (fun path off len -> Op.Read { path; range = Some (off, len) })
          path (int_bound 8000) (int_bound 4000) );
      (1, map (fun path -> Op.Read { path; range = None }) path);
      (2, map2 (fun path size -> Op.Truncate { path; size }) path (int_bound 6000));
      (2, map2 (fun src dst -> Op.Rename { src; dst }) path path);
      (2, map2 (fun src dst -> Op.Link { src; dst }) path path);
      (2, map (fun p -> Op.Readdir p) path);
      (1, pure Op.Sync);
      (1, pure Op.Flush);
    ]

let op_gen = op_gen_to ~max_off:6000

let print_ops ops = String.concat "; " (List.map Op.to_string ops)

let describe = function
  | Ok Op.Done -> "succeeded"
  | Error () -> "failed"
  | Ok (Op.Data b) -> Printf.sprintf "read %d bytes" (Bytes.length b)
  | Ok (Op.Names n) -> Printf.sprintf "listed %d" (List.length n)

module Run (F : Fs_intf.S) = struct
  (* Whole content of [path] on the model, if it is a file. *)
  let model_content model path =
    match Model_fs.apply model (Op.Read { path; range = None }) with
    | Ok (Op.Data b) -> Some b
    | _ -> None

  let apply fs model step op =
    let expect = Model_fs.apply model op in
    let got =
      Result.map_error ignore (Op.run (Fs_intf.Instance ((module F), fs)) op)
    in
    (* After a mutating op, immediately compare the touched file's full
       content — divergences then point at the guilty operation. *)
    (match op with
    | Op.Write { path = p; _ }
    | Op.Append { path = p; _ }
    | Op.Truncate { path = p; _ }
    | Op.Create p -> (
        match model_content model p with
        | Some expected -> (
            match F.read fs p ~off:0 ~len:(Bytes.length expected + 16) with
            | Ok b when Bytes.equal b expected -> ()
            | Ok b ->
                QCheck.Test.fail_reportf
                  "step %d (%s): content diverged (%d vs %d bytes)" step
                  (Op.to_string op) (Bytes.length b) (Bytes.length expected)
            | Error e ->
                QCheck.Test.fail_reportf "step %d (%s): readback failed: %s"
                  step (Op.to_string op) (E.to_string e))
        | None -> ())
    | Op.Link { dst = b; _ } -> (
        (* Both names must now read identically, and nlink must match. *)
        match model_content model b with
        | Some expected -> (
            (match F.read fs b ~off:0 ~len:(Bytes.length expected + 16) with
            | Ok got when Bytes.equal got expected -> ()
            | Ok _ ->
                QCheck.Test.fail_reportf "step %d (%s): link content diverged"
                  step (Op.to_string op)
            | Error e ->
                QCheck.Test.fail_reportf "step %d (%s): link readback: %s" step
                  (Op.to_string op) (E.to_string e));
            match F.stat fs b with
            | Ok st ->
                let expected_nlink = Model_fs.nlink_of_path model b in
                if st.Fs_intf.nlink <> expected_nlink then
                  QCheck.Test.fail_reportf "step %d (%s): nlink %d, expected %d"
                    step (Op.to_string op) st.Fs_intf.nlink expected_nlink
            | Error _ -> ())
        | None -> ())
    | _ -> ());
    if expect <> got then
      QCheck.Test.fail_reportf "step %d (%s): model %s, fs %s" step
        (Op.to_string op) (describe expect) (describe got)

  let final_check fs model =
    List.iter
      (fun (p, content) ->
        match F.read fs p ~off:0 ~len:(Bytes.length content + 16) with
        | Ok b ->
            if not (Bytes.equal b content) then
              QCheck.Test.fail_reportf "final content mismatch at %s" p
        | Error e ->
            QCheck.Test.fail_reportf "final read %s: %s" p (E.to_string e))
      (Model_fs.all_files model);
    List.iter
      (fun p ->
        match (F.readdir fs p, Model_fs.apply model (Op.Readdir p)) with
        | Ok names, Ok (Op.Names expected) ->
            if names <> expected then
              QCheck.Test.fail_reportf "final readdir mismatch at %s" p
        | Error e, _ ->
            QCheck.Test.fail_reportf "final readdir %s: %s" p (E.to_string e)
        | Ok _, _ -> QCheck.Test.fail_reportf "model lost a directory")
      (Model_fs.all_dirs model)

  let run ?(extra_check = fun _ -> ()) make ops =
    let fs = make () in
    let model = Model_fs.create () in
    List.iteri (fun step op -> apply fs model step op) ops;
    final_check fs model;
    (* Once more after pushing everything to disk and dropping caches. *)
    F.flush_caches fs;
    final_check fs model;
    extra_check fs;
    true
end

module Lfs_run = Run (Lfs_core.Fs)
module Ffs_run = Run (Lfs_ffs.Fs)

(* A 4-block cache: nearly every fill reuses a buffer the cache
   recycled, so an op that keeps a block buffer past a cache update
   reads or writes another block's bytes. *)
let tiny_cache_lfs =
  { Common.small_config with Lfs_core.Config.cache_blocks = 4 }

let tiny_cache_ffs = { Lfs_ffs.Config.small with Lfs_ffs.Config.cache_blocks = 4 }

let make_ffs config =
  let io = Common.make_io () in
  (match Lfs_ffs.Fs.format io config with
  | Ok () -> ()
  | Error e -> failwith ("ffs format: " ^ e));
  match Lfs_ffs.Fs.mount ~config io with
  | Ok fs -> fs
  | Error e -> failwith ("ffs mount: " ^ e)

(* Writes reach past the direct blocks (48 KB), so pointer blocks are
   cached, edited and evicted too. *)
let deep_ops =
  QCheck.Gen.(list_size (int_range 20 120) (op_gen_to ~max_off:80_000))

let lfs_model_prop ~name ~count ~config ~ops_gen =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:print_ops ops_gen)
    (fun ops ->
      let structurally_sound fs =
        (match Lfs_core.Check.fsck fs with
        | [] -> ()
        | issues ->
            QCheck.Test.fail_reportf "structural issues: %s"
              (String.concat "; "
                 (List.map
                    (Format.asprintf "%a" Lfs_core.Check.pp_issue)
                    issues)));
        (* Live-byte accounting must track ground truth (± the usage
           array's self-reference slack). *)
        let tolerance =
          2 * (Lfs_core.Fs.layout fs).Lfs_core.Layout.block_size
        in
        List.iter
          (fun (seg, recorded, truth) ->
            if abs (recorded - truth) > tolerance then
              QCheck.Test.fail_reportf
                "segment %d usage drift: recorded %d, truth %d" seg recorded
                truth)
          (Lfs_core.Check.usage_drift fs)
      in
      Lfs_run.run ~extra_check:structurally_sound
        (fun () -> Common.make_lfs ~config ())
        ops)

let prop_lfs_model =
  lfs_model_prop ~name:"LFS matches reference model" ~count:(count 60)
    ~config:Common.small_config
    ~ops_gen:QCheck.Gen.(list_size (int_range 20 120) op_gen)

let prop_lfs_model_tiny_cache =
  lfs_model_prop ~name:"LFS matches reference model, 4-block cache"
    ~count:(count 30) ~config:tiny_cache_lfs ~ops_gen:deep_ops

let prop_ffs_model =
  QCheck.Test.make ~name:"FFS matches reference model" ~count:(count 60)
    (QCheck.make ~print:print_ops
       QCheck.Gen.(list_size (int_range 20 120) op_gen))
    (fun ops -> Ffs_run.run (fun () -> Generic_suite.Ffs_env.make ()) ops)

let prop_ffs_model_tiny_cache =
  QCheck.Test.make ~name:"FFS matches reference model, 4-block cache"
    ~count:(count 30)
    (QCheck.make ~print:print_ops deep_ops)
    (fun ops -> Ffs_run.run (fun () -> make_ffs tiny_cache_ffs) ops)

(* Crash-recovery property: run operations with periodic checkpoints,
   arm a crash at a random write countdown, keep operating until the
   crash fires, then remount and check
   (1) the recovered tree is fully readable (no corruption), and
   (2) every file unchanged since the last checkpoint survives with its
       checkpointed content. *)

let lfs_crash_recovery_prop ~name ~count ~config =
  QCheck.Test.make ~name ~count
    (QCheck.make
       ~print:(fun (ops, crash_after) ->
         Printf.sprintf "crash_after=%d; %s" crash_after
           (print_ops ops))
       QCheck.Gen.(
         pair (list_size (int_range 30 100) op_gen) (int_range 1 2000)))
    (fun (ops, crash_after) ->
      let fs = Common.make_lfs ~config () in
      let io = Lfs_core.Fs.io fs in
      let disk = Lfs_disk.Io.member_disk io 0 in
      let model = Model_fs.create () in
      (* Stable state: everything up to a checkpoint.  Touched paths are
         tracked as *prefixes*: renaming a directory moves its whole
         subtree, so everything under either endpoint counts as touched. *)
      let stable = ref [] in
      let dirty_prefixes = ref [] in
      (* With hard links a path can alias a file modified through another
         name; track content identity as well as paths. *)
      let touched_ids = Hashtbl.create 16 in
      let touch_id p =
        match Model_fs.file_id model p with
        | Some id -> Hashtbl.replace touched_ids id ()
        | None -> ()
      in
      let touch p =
        dirty_prefixes := p :: !dirty_prefixes;
        touch_id p
      in
      let touched p =
        List.exists
          (fun pre -> p = pre || String.starts_with ~prefix:(pre ^ "/") p)
          !dirty_prefixes
      in
      let module R = Run (Lfs_core.Fs) in
      let step_count = ref 0 in
      let crashed = ref false in
      (try
         List.iteri
           (fun step op ->
             if not !crashed then begin
               incr step_count;
               (match op with
               | Op.Create p | Op.Mkdir p | Op.Delete p
               | Op.Truncate { path = p; _ }
               | Op.Write { path = p; _ }
               | Op.Append { path = p; _ } ->
                   touch p
               | Op.Rename { src; dst } | Op.Link { src; dst } ->
                   touch src;
                   touch dst
               | Op.Read _ | Op.Readdir _ | Op.Sync | Op.Flush -> ());
               R.apply fs model step op;
               if step = List.length ops / 2 then begin
                 (* Checkpoint mid-run and arm the crash after it. *)
                 Lfs_core.Fs.checkpoint_now fs;
                 stable :=
                   List.filter_map
                     (fun (p, content) ->
                       Option.map
                         (fun id -> (p, id, content))
                         (Model_fs.file_id model p))
                     (Model_fs.all_files model);
                 dirty_prefixes := [];
                 Hashtbl.reset touched_ids;
                 Lfs_disk.Disk.set_crash_after disk ~sectors:crash_after
               end
             end)
           ops
       with Lfs_disk.Disk.Crash -> crashed := true);
      Lfs_disk.Disk.clear_crash disk;
      let fs2 =
        match Lfs_core.Fs.mount ~config io with
        | Ok fs -> fs
        | Error e -> QCheck.Test.fail_reportf "remount failed: %s" e
      in
      (* (1) Whole tree readable. *)
      let rec walk path =
        match Lfs_core.Fs.readdir fs2 path with
        | Error e -> QCheck.Test.fail_reportf "walk %s: %s" path (E.to_string e)
        | Ok names ->
            List.iter
              (fun n ->
                let full = if path = "/" then "/" ^ n else path ^ "/" ^ n in
                match Lfs_core.Fs.stat fs2 full with
                | Error e ->
                    QCheck.Test.fail_reportf "stat %s: %s" full (E.to_string e)
                | Ok st ->
                    if st.Fs_intf.kind = Fs_intf.Directory then walk full
                    else begin
                      match
                        Lfs_core.Fs.read fs2 full ~off:0 ~len:st.Fs_intf.size
                      with
                      | Ok _ -> ()
                      | Error e ->
                          QCheck.Test.fail_reportf "read %s: %s" full
                            (E.to_string e)
                    end)
              names
      in
      walk "/";
      (* Structural soundness; roll-forward may resurrect orphan inodes
         for post-checkpoint deletes (documented 1990 limitation). *)
      (match
         List.filter
           (function Lfs_core.Check.Orphan_inode _ -> false | _ -> true)
           (Lfs_core.Check.fsck fs2)
       with
      | [] -> ()
      | issues ->
          QCheck.Test.fail_reportf "post-crash structural issues: %s"
            (String.concat "; "
               (List.map (Format.asprintf "%a" Lfs_core.Check.pp_issue) issues)));
      (* (2) Checkpointed-and-untouched files intact. *)
      List.iter
        (fun (p, id, content) ->
          if not (touched p || Hashtbl.mem touched_ids id) then begin
            match
              Lfs_core.Fs.read fs2 p ~off:0 ~len:(Bytes.length content + 16)
            with
            | Ok b ->
                if not (Bytes.equal b content) then
                  QCheck.Test.fail_reportf
                    "checkpointed file %s corrupted after crash" p
            | Error e ->
                QCheck.Test.fail_reportf "checkpointed file %s lost: %s" p
                  (E.to_string e)
          end)
        !stable;
      true)

let prop_lfs_crash_recovery =
  lfs_crash_recovery_prop ~name:"LFS crash recovery invariants"
    ~count:(count 40) ~config:Common.small_config

let prop_lfs_crash_recovery_tiny_cache =
  lfs_crash_recovery_prop
    ~name:"LFS crash recovery invariants, 4-block cache" ~count:(count 20)
    ~config:tiny_cache_lfs

let suite =
  [
    qcheck prop_lfs_model;
    qcheck prop_ffs_model;
    qcheck prop_lfs_crash_recovery;
    qcheck prop_lfs_model_tiny_cache;
    qcheck prop_ffs_model_tiny_cache;
    qcheck prop_lfs_crash_recovery_tiny_cache;
  ]
