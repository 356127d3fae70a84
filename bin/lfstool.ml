(* lfstool: manipulate LFS disk images kept in host files.

   The simulated disk's media is a flat byte array, so an LFS file system
   can live in an ordinary file:

     lfstool format img.lfs --size-mb 64
     lfstool put img.lfs /notes.txt README.md
     lfstool ls img.lfs /
     lfstool cat img.lfs /notes.txt
     lfstool segments img.lfs
     lfstool fsck img.lfs
*)

module Clock = Lfs_disk.Clock
module Config = Lfs_core.Config
module Cpu_model = Lfs_disk.Cpu_model
module Fs = Lfs_core.Fs
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io

(* A host file named on the command line that cannot be read is a usage
   error: one line and exit 2. *)
let usage_error msg =
  Printf.eprintf "lfstool: %s\n" msg;
  exit 2

let read_input path =
  match open_in_bin path with
  | exception Sys_error e -> usage_error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try really_input_string ic (in_channel_length ic)
          with Sys_error e -> usage_error (path ^ ": " ^ e))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let make_io ~size_bytes =
  Io.of_geometry (Geometry.wren_iv ~size_bytes) (Clock.create ()) Cpu_model.free

(* An image that cannot be read, or whose size is not that of any disk,
   is a usage error. *)
let load_image path =
  let media = read_input path in
  try
    let io = make_io ~size_bytes:(String.length media) in
    Io.restore_media io (Bytes.of_string media);
    io
  with Invalid_argument _ ->
    usage_error
      (Printf.sprintf "%s: %d bytes matches no disk geometry" path
         (String.length media))

let save_image io path =
  write_file path (Bytes.to_string (Io.snapshot_media io))

let mount_image path =
  let io = load_image path in
  match Fs.mount io with
  | Ok fs -> fs
  | Error e ->
      Printf.eprintf "lfstool: %s: %s\n" path e;
      exit 1

let or_die = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "lfstool: %s\n" (Lfs_vfs.Errors.to_string e);
      exit 1

(* Commands *)

let cmd_format image size_mb block_size segment_size =
  let io = make_io ~size_bytes:(size_mb * 1024 * 1024) in
  let config = { Config.default with Config.block_size; segment_size } in
  (match Fs.format io config with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "lfstool: format: %s\n" e;
      exit 1);
  save_image io image;
  Printf.printf "formatted %s (%d MB, %d B blocks, %d KB segments)\n" image
    size_mb block_size (segment_size / 1024)

let cmd_ls image path =
  let fs = mount_image image in
  List.iter
    (fun name ->
      let full = if path = "/" then "/" ^ name else path ^ "/" ^ name in
      let stat = or_die (Fs.stat fs full) in
      Printf.printf "%s %8d  %s\n"
        (match stat.Lfs_vfs.Fs_intf.kind with
        | Lfs_vfs.Fs_intf.Directory -> "d"
        | Lfs_vfs.Fs_intf.Regular -> "-")
        stat.Lfs_vfs.Fs_intf.size name)
    (or_die (Fs.readdir fs path))

let cmd_cat image path =
  let fs = mount_image image in
  let stat = or_die (Fs.stat fs path) in
  let data = or_die (Fs.read fs path ~off:0 ~len:stat.Lfs_vfs.Fs_intf.size) in
  print_string (Bytes.to_string data)

let cmd_put image path hostfile =
  let data = read_input hostfile in
  let fs = mount_image image in
  if not (Fs.exists fs path) then or_die (Fs.create fs path);
  or_die (Fs.truncate fs path ~size:0);
  or_die (Fs.write fs path ~off:0 (Bytes.of_string data));
  Fs.unmount fs;
  save_image (Fs.io fs) image;
  Printf.printf "wrote %d bytes to %s:%s\n" (String.length data) image path

let cmd_mkdir image path =
  let fs = mount_image image in
  or_die (Fs.mkdir fs path);
  Fs.unmount fs;
  save_image (Fs.io fs) image

let cmd_rm image path =
  let fs = mount_image image in
  or_die (Fs.delete fs path);
  Fs.unmount fs;
  save_image (Fs.io fs) image

let cmd_info image =
  let fs = mount_image image in
  let layout = Fs.layout fs in
  Format.printf "%a@." Lfs_core.Layout.pp layout;
  let stats = Fs.stats fs in
  Printf.printf "clean segments : %d / %d\n" (Fs.clean_segment_count fs)
    layout.Lfs_core.Layout.nsegments;
  Printf.printf "live data      : %s\n"
    (Lfs_util.Table.fmt_bytes (Fs.live_bytes fs));
  Printf.printf "checkpoints    : %d, roll-forward segments: %d\n"
    stats.Lfs_core.State.checkpoints
    stats.Lfs_core.State.rollforward_segments

let cmd_segments image =
  let fs = mount_image image in
  List.iter
    (fun (seg, state, util) ->
      Printf.printf "seg %4d  %-6s  %3.0f%%  %s\n" seg
        (match state with
        | Lfs_core.Seg_usage.Clean -> "clean"
        | Lfs_core.Seg_usage.Dirty -> "dirty"
        | Lfs_core.Seg_usage.Active -> "active")
        (util *. 100.0)
        (String.make (int_of_float (util *. 50.0)) '#'))
    (Fs.segment_report fs)

let cmd_clean image =
  let fs = mount_image image in
  let freed = Fs.clean_now ~target:max_int fs in
  Fs.unmount fs;
  save_image (Fs.io fs) image;
  Printf.printf "freed %d segments; %d now clean\n" freed
    (Fs.clean_segment_count fs)

let cmd_get image path hostfile =
  let fs = mount_image image in
  let stat = or_die (Fs.stat fs path) in
  let data = or_die (Fs.read fs path ~off:0 ~len:stat.Lfs_vfs.Fs_intf.size) in
  write_file hostfile (Bytes.to_string data);
  Printf.printf "copied %d bytes from %s:%s to %s\n" (Bytes.length data) image
    path hostfile

let cmd_tree image =
  let fs = mount_image image in
  let rec walk indent path =
    List.iter
      (fun name ->
        let full = if path = "/" then "/" ^ name else path ^ "/" ^ name in
        let stat = or_die (Fs.stat fs full) in
        match stat.Lfs_vfs.Fs_intf.kind with
        | Lfs_vfs.Fs_intf.Directory ->
            Printf.printf "%s%s/\n" indent name;
            walk (indent ^ "  ") full
        | Lfs_vfs.Fs_intf.Regular ->
            Printf.printf "%s%s (%d bytes)\n" indent name
              stat.Lfs_vfs.Fs_intf.size)
      (or_die (Fs.readdir fs path))
  in
  print_endline "/";
  walk "  " "/"

let cmd_df image =
  let fs = mount_image image in
  let s = Fs.space fs in
  Printf.printf "capacity : %s\n" (Lfs_util.Table.fmt_bytes s.Fs.capacity_bytes);
  Printf.printf "live     : %s (%.0f%%)\n"
    (Lfs_util.Table.fmt_bytes s.Fs.live_bytes)
    (100.0 *. float_of_int s.Fs.live_bytes /. float_of_int s.Fs.capacity_bytes);
  Printf.printf "clean    : %s in %d segments\n"
    (Lfs_util.Table.fmt_bytes s.Fs.clean_bytes)
    (Fs.clean_segment_count fs);
  Printf.printf "cleanable: %s (dead bytes in dirty segments)\n"
    (Lfs_util.Table.fmt_bytes s.Fs.cleanable_bytes)

(* A small fsck: walk the namespace, read every file completely, then run
   the deep structural pass (double references, wild addresses, orphans)
   and the segment-usage drift check. *)
let cmd_fsck image json =
  let fs = mount_image image in
  let files = ref 0 and dirs = ref 0 and bytes = ref 0 in
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun s -> problems := s :: !problems) fmt
  in
  let rec walk path =
    match Fs.readdir fs path with
    | Error e -> problem "readdir %s: %s" path (Lfs_vfs.Errors.to_string e)
    | Ok names ->
        List.iter
          (fun name ->
            let full = if path = "/" then "/" ^ name else path ^ "/" ^ name in
            match Fs.stat fs full with
            | Error e ->
                problem "stat %s: %s" full (Lfs_vfs.Errors.to_string e)
            | Ok stat -> (
                match stat.Lfs_vfs.Fs_intf.kind with
                | Lfs_vfs.Fs_intf.Directory ->
                    incr dirs;
                    walk full
                | Lfs_vfs.Fs_intf.Regular -> (
                    incr files;
                    match
                      Fs.read fs full ~off:0 ~len:stat.Lfs_vfs.Fs_intf.size
                    with
                    | Ok data -> bytes := !bytes + Bytes.length data
                    | Error e ->
                        problem "read %s: %s" full
                          (Lfs_vfs.Errors.to_string e))))
          names
  in
  walk "/";
  List.iter
    (fun issue ->
      problem "%s" (Format.asprintf "%a" Lfs_core.Check.pp_issue issue))
    (Lfs_core.Check.fsck fs);
  (* Segment-usage accounting vs ground truth.  Small drift is expected
     (the usage array cannot count its own blocks exactly while they are
     being rewritten); the tolerance matches the always-on sanitizer. *)
  let layout = Fs.layout fs in
  let tolerance = 2 * layout.Lfs_core.Layout.block_size in
  let drift = Lfs_core.Check.usage_drift fs in
  List.iter
    (fun (seg, recorded, recomputed) ->
      if abs (recorded - recomputed) > tolerance then
        problem "segment %d usage drift: recorded %d live bytes, recomputed %d"
          seg recorded recomputed)
    drift;
  let problems = List.rev !problems in
  if json then begin
    let module J = Lfs_obs.Json in
    print_string
      (J.to_string_pretty
         (J.Obj
            [
              ("image", J.String image);
              ("directories", J.Int !dirs);
              ("files", J.Int !files);
              ("bytes", J.Int !bytes);
              ("problems", J.List (List.map (fun s -> J.String s) problems));
              ( "usage_drift",
                J.List
                  (List.map
                     (fun (seg, recorded, recomputed) ->
                       J.Obj
                         [
                           ("segment", J.Int seg);
                           ("recorded", J.Int recorded);
                           ("recomputed", J.Int recomputed);
                         ])
                     drift) );
              ("clean", J.Bool (problems = []));
            ]))
  end
  else begin
    List.iter (fun s -> Printf.printf "fsck: %s\n" s) problems;
    Printf.printf "fsck: %d directories, %d files, %s of data, %d problems\n"
      !dirs !files
      (Lfs_util.Table.fmt_bytes !bytes)
      (List.length problems)
  end;
  if problems <> [] then exit 1

let cmd_dump_segment image seg =
  let fs = mount_image image in
  print_string (Lfs_core.Inspect.describe_segment fs (int_of_string seg))

let cmd_checkpoints image =
  let fs = mount_image image in
  print_string (Lfs_core.Inspect.describe_checkpoints fs)

(* Observability surfaces *)

module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Json = Lfs_obs.Json
module Metrics = Lfs_obs.Metrics
module Benchdiff = Lfs_obs.Benchdiff
module Driver = Lfs_workload.Driver
module Setup = Lfs_workload.Setup

let cmd_stats image json =
  let fs = mount_image image in
  let snap = Metrics.snapshot (Io.metrics (Fs.io fs)) in
  if json then print_endline (Json.to_string_pretty (Metrics.to_json snap))
  else print_string (Metrics.render snap)

(* Trace ops are colon-separated tokens so a whole scenario fits on one
   command line: mkdir:/d create:/d/f write:/d/f:8192 read:/d/f
   delete:/d/f sync *)
let parse_op tok =
  match String.split_on_char ':' tok with
  | [ "mkdir"; p ] -> `Mkdir p
  | [ "create"; p ] -> `Create p
  | [ "write"; p; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> `Write (p, n)
      | _ ->
          Printf.eprintf "lfstool: trace: bad write size in %S\n" tok;
          exit 2)
  | [ "read"; p ] -> `Read p
  | [ "delete"; p ] -> `Delete p
  | [ "sync" ] -> `Sync
  | _ ->
      Printf.eprintf
        "lfstool: trace: bad op %S (want mkdir:P create:P write:P:N read:P \
         delete:P sync)\n"
        tok;
      exit 2

let apply_op inst = function
  | `Mkdir p -> Driver.mkdir inst p
  | `Create p -> Driver.create inst p
  | `Write (p, n) -> Driver.write inst p ~off:0 (Driver.content ~seed:7 n)
  | `Read p ->
      let stat = Driver.stat inst p in
      ignore (Driver.read inst p ~off:0 ~len:stat.Lfs_vfs.Fs_intf.size)
  | `Delete p -> Driver.delete inst p
  | `Sync -> Driver.sync inst

(* Replay [ops] on [inst] with a sink attached (a ring of [limit]
   records when given, unbounded otherwise), and emit the captured
   events as JSONL (one object per line, on stdout).  A truncated
   capture is never silent: the JSONL stream ends in a
   [trace_truncated] trailer and the stderr footer reports the drop
   count. *)
let trace_instance ?limit inst ops =
  let bus = Driver.bus inst in
  let sink = Bus.attach ?capacity:limit bus in
  Bus.emit bus
    (Event.Note
       { name = "trace_begin"; fields = [ ("system", Json.String (Driver.label inst)) ] });
  List.iter (apply_op inst) ops;
  Bus.emit bus
    (Event.Note
       { name = "trace_end"; fields = [ ("system", Json.String (Driver.label inst)) ] });
  let records = Bus.records sink in
  let dropped = Bus.dropped sink in
  Bus.detach bus sink;
  print_string (Event.to_jsonl ~dropped records);
  if dropped > 0 then
    Printf.eprintf "trace: %s: kept newest %d events, dropped %d oldest\n"
      (Driver.label inst) (List.length records) dropped
  else
    Printf.eprintf "trace: %s: %d events\n" (Driver.label inst)
      (List.length records)

(* The paper's Figure 1 scenario as a default: create two small files
   and sync.  On LFS the trace ends in one sequential segment write; on
   FFS (with --ffs) the same ops show synchronous inode and directory
   writes scattered over the disk. *)
let default_trace_ops =
  [
    `Create "/trace0"; `Write ("/trace0", 1024);
    `Create "/trace1"; `Write ("/trace1", 1024); `Sync;
  ]

let cmd_trace image with_ffs limit ops =
  (match limit with
  | Some n when n <= 0 ->
      Printf.eprintf "lfstool: trace: --limit must be positive\n";
      exit 2
  | Some _ | None -> ());
  let ops =
    match ops with [] -> default_trace_ops | toks -> List.map parse_op toks
  in
  let fs = mount_image image in
  (* Tracing replays the ops in memory only; the image file is left
     untouched. *)
  trace_instance ?limit (Lfs_vfs.Fs_intf.Instance ((module Fs), fs)) ops;
  if with_ffs then begin
    let size_bytes =
      let g = Io.geometry (Fs.io fs) in
      g.Geometry.sectors * g.Geometry.sector_size
    in
    let io = make_io ~size_bytes in
    (match Lfs_ffs.Fs.format io Lfs_ffs.Config.default with
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "lfstool: trace: FFS format: %s\n" e;
        exit 1);
    match Lfs_ffs.Fs.mount io with
    | Error e ->
        Printf.eprintf "lfstool: trace: FFS mount: %s\n" e;
        exit 1
    | Ok ffs ->
        trace_instance ?limit
          (Lfs_vfs.Fs_intf.Instance ((module Lfs_ffs.Fs), ffs))
          ops
  end

(* Scratch-stack experiments: lfstool's profile, concurrency and
   scaleout subcommands run an entry of the bench's experiment table
   with parameters built from their flags.  A bad parameter is a usage
   error (exit 2); a workload that fails, or a figure that breaks the
   experiment's per-entry invariants, exits 1.  --json emits the figure
   as an lfs-bench/1 document. *)

module Experiment = Lfs_workload.Experiment

let run_experiment cmd exp ~json valid run =
  (match valid with
  | Ok () -> ()
  | Error e -> usage_error (cmd ^ ": " ^ e));
  let fail e =
    Printf.eprintf "lfstool: %s: %s\n" cmd e;
    exit 1
  in
  match run () with
  | exception Driver.Benchmark_failure e -> fail e
  | { Experiment.text; figure } ->
      let figure = Option.value figure ~default:(Json.List []) in
      if json then
        print_string
          (Json.to_string_pretty
             (Experiment.document ~quick:false
                [ (Experiment.name exp, figure) ]))
      else print_string text;
      Result.iter_error fail (Experiment.check ~claims:false exp figure)

let cmd_profile workload files file_size file_mb tree json =
  let module P = Experiment.Profile in
  let workload =
    match workload with
    | "smallfile" -> P.Smallfile { files; file_size }
    | "largefile" -> P.Largefile { file_mb }
    | "trace" -> P.Trace
    | w ->
        usage_error
          (Printf.sprintf
             "profile: unknown workload %S (want smallfile, largefile or \
              trace)"
             w)
  in
  let p = { P.workload; disk_mb = Setup.default_disk_mb; tree } in
  run_experiment "profile" P.entry ~json (P.validate p) (fun () ->
      P.run p)

(* Regression gate over lfs-bench/1 files. *)
let cmd_benchdiff base_file cur_file tolerance gate json =
  let load file =
    match Json.of_string_opt (read_input file) with
    | Some j -> j
    | None ->
        Printf.eprintf "lfstool: benchdiff: %s is not valid JSON\n" file;
        exit 2
  in
  let base = load base_file and cur = load cur_file in
  match Benchdiff.compare ~tolerance_pct:tolerance ~base ~cur () with
  | exception Invalid_argument msg ->
      Printf.eprintf "lfstool: %s\n" msg;
      exit 2
  | rep ->
      if json then print_endline (Json.to_string_pretty (Benchdiff.to_json rep))
      else print_string (Benchdiff.render rep);
      if gate && Benchdiff.gates rep then begin
        Printf.eprintf "benchdiff: %s regressed against %s\n" cur_file
          base_file;
        exit 1
      end

(* Fault-injection sweep: crash a scratch workload at every write
   boundary on both systems, tear the crashing write on LFS, inject
   transient read errors into a full read-back, and mark checkpoint
   region A sticky-bad.  No image argument — every replay runs on a
   fresh in-memory stack.  Exits non-zero if any replay recovers to a
   state that violates the durable model. *)

module Crashpoint = Lfs_workload.Crashpoint

let cmd_crashtest json files size seed =
  (* The workload deletes its first file, so it needs at least one. *)
  if files < 1 || size < 0 then
    usage_error "crashtest: --files must be at least 1 and --file-size >= 0";
  let ops = Crashpoint.smallfile ~files ~size () in
  let sweeps =
    [
      Crashpoint.sweep ~seed `Lfs ops;
      Crashpoint.sweep ~seed `Ffs ops;
      Crashpoint.sweep ~torn:true ~seed `Lfs ops;
    ]
  in
  let reads =
    List.map
      (fun sys ->
        (sys, Crashpoint.read_fault_run ~rate:0.2 ~seed:(seed + 4) sys ops))
      ([ `Lfs; `Ffs ] : Crashpoint.system list)
  in
  let bad = Crashpoint.bad_sector_run ~seed:(seed + 6) () in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let crashed_points (o : Crashpoint.outcome) =
    List.filter (fun p -> p.Crashpoint.crashed) o.Crashpoint.points
  in
  let crashed o = List.length (crashed_points o) in
  let mean f o =
    match crashed_points o with
    | [] -> 0
    | pts -> sum f pts / List.length pts
  in
  let kinds =
    [
      ("crash", sum crashed sweeps);
      ( "torn_write",
        sum crashed (List.filter (fun o -> o.Crashpoint.torn) sweeps) );
      ("read_error", sum (fun (_, r) -> r.Crashpoint.read_errors) reads);
      ("bad_sector", bad.Crashpoint.bad_sector_reads);
    ]
  in
  let violations =
    List.concat_map (fun o -> o.Crashpoint.violations) sweeps
    @ List.concat_map (fun (_, r) -> r.Crashpoint.rf_violations) reads
    @ bad.Crashpoint.bs_violations
  in
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  if json then
    print_endline
      (Json.to_string_pretty
         (Json.Obj
            [
              ("schema", Json.String "lfs-crashtest/1");
              ("ops", Json.Int (List.length ops));
              ( "fault_kinds",
                Json.List
                  (List.map
                     (fun (kind, faults) ->
                       Json.Obj
                         [
                           ("kind", Json.String kind);
                           ("faults", Json.Int faults);
                         ])
                     kinds) );
              ( "sweeps",
                Json.List
                  (List.map
                     (fun (o : Crashpoint.outcome) ->
                       Json.Obj
                         [
                           ("label", Json.String o.Crashpoint.label);
                           ("torn", Json.Bool o.Crashpoint.torn);
                           ("total_writes", Json.Int o.Crashpoint.total_writes);
                           ( "boundaries_tested",
                             Json.Int o.Crashpoint.boundaries_tested );
                           ("faults", Json.Int o.Crashpoint.faults);
                           ( "mean_recovery_us",
                             Json.Int (mean (fun p -> p.Crashpoint.recovery_us) o)
                           );
                           ( "mean_recovery_reads",
                             Json.Int
                               (mean (fun p -> p.Crashpoint.recovery_reads) o) );
                           ("violations", strings o.Crashpoint.violations);
                         ])
                     sweeps) );
              ( "read_faults",
                Json.List
                  (List.map
                     (fun (sys, r) ->
                       Json.Obj
                         [
                           ( "system",
                             Json.String (Crashpoint.system_name sys) );
                           ("retries", Json.Int r.Crashpoint.retries);
                           ("backoff_us", Json.Int r.Crashpoint.backoff_us);
                           ("read_errors", Json.Int r.Crashpoint.read_errors);
                           ("violations", strings r.Crashpoint.rf_violations);
                         ])
                     reads) );
              ( "bad_sector",
                Json.Obj
                  [
                    ( "bad_sector_reads",
                      Json.Int bad.Crashpoint.bad_sector_reads );
                    ("violations", strings bad.Crashpoint.bs_violations);
                  ] );
              ("violations", Json.Int (List.length violations));
              ("clean", Json.Bool (violations = []));
            ]))
  else begin
    Printf.printf "crashtest: %d-op workload (%d files)\n" (List.length ops)
      files;
    List.iter
      (fun (o : Crashpoint.outcome) ->
        Printf.printf
          "sweep %-3s%s : %d/%d boundaries crashed, %d faults, mean recovery \
           %d us / %d reads\n"
          o.Crashpoint.label
          (if o.Crashpoint.torn then " torn" else "     ")
          (crashed o) o.Crashpoint.boundaries_tested o.Crashpoint.faults
          (mean (fun p -> p.Crashpoint.recovery_us) o)
          (mean (fun p -> p.Crashpoint.recovery_reads) o))
      sweeps;
    List.iter
      (fun (sys, r) ->
        Printf.printf
          "read faults %-3s: %d injected, %d retries, %d us backoff\n"
          (Crashpoint.system_name sys)
          r.Crashpoint.read_errors r.Crashpoint.retries
          r.Crashpoint.backoff_us)
      reads;
    Printf.printf "bad sector     : %d faulted reads\n"
      bad.Crashpoint.bad_sector_reads;
    List.iter (fun v -> Printf.printf "violation: %s\n" v) violations;
    Printf.printf "crashtest: %d fault kinds, %d violations\n"
      (List.length (List.filter (fun (_, n) -> n > 0) kinds))
      (List.length violations)
  end;
  if violations <> [] then exit 1

module Sched = Lfs_disk.Sched

let cmd_concurrency clients ops discipline disk_mb per_client json =
  let discipline =
    match discipline with
    | "none" | "immediate" -> None
    | s -> (
        match Sched.discipline_of_string s with
        | Some d -> Some d
        | None ->
            usage_error
              (Printf.sprintf
                 "concurrency: unknown discipline %S (want fcfs, scan, cscan \
                  or none)"
                 s))
  in
  let module C = Experiment.Concurrency in
  let disciplines = [ discipline ] in
  let p = { C.clients = [ clients ]; ops; disk_mb; disciplines; per_client } in
  run_experiment "concurrency" C.entry ~json (C.validate p)
    (fun () -> C.run p)

let cmd_scaleout members_arg policy_arg files file_size json =
  let members =
    match
      List.map int_of_string_opt (String.split_on_char ',' members_arg)
    with
    | l when List.for_all Option.is_some l -> List.map Option.get l
    | _ ->
        usage_error
          (Printf.sprintf "scaleout: bad --members %S (want e.g. 1,2,4)"
             members_arg)
  in
  let module S = Experiment.Scaleout in
  let policy =
    match S.policy_of_string policy_arg with
    | Some p -> p
    | None ->
        usage_error
          (Printf.sprintf
             "scaleout: unknown policy %S (want log_stripe, stripe or mirror)"
             policy_arg)
  in
  let p =
    { S.member_mb = 16; files; file_size; members; policies = [ policy ] }
  in
  run_experiment "scaleout" S.entry ~json (S.validate p) (fun () ->
      S.run p)

(* Declarative scenario runner: one builder over op streams, engine
   runs, crash sweeps and read-back fault scenarios, with seed-managed
   replay.  `--replay SEED` re-runs a printed replay line; `--plant`
   installs a deliberately failing invariant so the shrink/replay loop
   can be exercised (and smoke-tested) end to end. *)

module Scenario = Lfs_scenario.Scenario

let planted_invariant inst =
  match Lfs_workload.Driver.readdir inst "/" with
  | [] -> []
  | l -> [ Printf.sprintf "planted: root holds %d entries" (List.length l) ]

let cmd_scenario sys mix count payload clients think sweep boundaries torn
    transient burst read_back bad_sector volume fault_member plant json seed
    replay =
  let parse_volume s =
    let bad () =
      Printf.eprintf
        "lfstool: scenario: bad volume %S (want \
         stripe:MEMBERS:CHUNK | log_stripe:MEMBERS:STRIPE | mirror:MEMBERS)\n"
        s;
      exit 2
    in
    match String.split_on_char ':' s with
    | [ "mirror"; n ] -> (
        match int_of_string_opt n with
        | Some n -> (Lfs_disk.Volume.Mirror, n)
        | None -> bad ())
    | [ "stripe"; n; c ] -> (
        match (int_of_string_opt n, int_of_string_opt c) with
        | Some n, Some c -> (Lfs_disk.Volume.Stripe { chunk_sectors = c }, n)
        | _ -> bad ())
    | [ "log_stripe"; n; sc ] -> (
        match (int_of_string_opt n, int_of_string_opt sc) with
        | Some n, Some sc ->
            (Lfs_disk.Volume.Log_stripe { stripe_sectors = sc }, n)
        | _ -> bad ())
    | _ -> bad ()
  in
  let parse_think s =
    match String.split_on_char ':' s with
    | [ lo; hi ] -> (
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi when lo = hi -> Scenario.Constant lo
        | Some lo, Some hi -> Scenario.Uniform (lo, hi)
        | _ ->
            Printf.eprintf "lfstool: scenario: bad think time %S\n" s;
            exit 2)
    | _ ->
        Printf.eprintf "lfstool: scenario: bad think time %S (want LO:HI)\n" s;
        exit 2
  in
  let run () =
    let spec = Scenario.make in
    let spec =
      match sys with
      | "lfs" -> spec
      | "ffs" -> Scenario.system `Ffs spec
      | other ->
          Printf.eprintf "lfstool: scenario: unknown system %S\n" other;
          exit 2
    in
    let spec =
      match mix with
      | None -> spec
      | Some m -> Scenario.ops (Scenario.mix_of_string m) spec
    in
    let spec = Scenario.count count spec in
    let spec = Scenario.payload payload spec in
    let spec =
      match clients with None -> spec | Some n -> Scenario.clients n spec
    in
    let spec =
      match think with
      | None -> spec
      | Some s -> Scenario.think (parse_think s) spec
    in
    let spec = if sweep then Scenario.crash_sweep spec else spec in
    let spec = Scenario.boundaries boundaries spec in
    let faults =
      (if torn then [ Scenario.Torn ] else [])
      @ (match transient with
        | Some rate -> [ Scenario.Transient { rate; burst } ]
        | None -> [])
      @ if bad_sector then [ Scenario.Checkpoint_bad_sector ] else []
    in
    let spec = if faults = [] then spec else Scenario.faults faults spec in
    let spec = if read_back then Scenario.read_back spec else spec in
    let spec =
      match volume with
      | None -> spec
      | Some v ->
          let policy, members = parse_volume v in
          Scenario.volume policy members spec
    in
    let spec =
      match fault_member with
      | None -> spec
      | Some m -> Scenario.fault_member m spec
    in
    let spec =
      if plant then
        Scenario.(
          spec
          |> invariant ~name:"planted-empty-root" planted_invariant
          |> cli_flags [ "--plant" ])
      else spec
    in
    let spec =
      Scenario.seed (match replay with Some s -> s | None -> seed) spec
    in
    Scenario.run spec
  in
  match run () with
  | exception Lfs_workload.Driver.Benchmark_failure m ->
      Printf.eprintf "lfstool: scenario: %s\n" m;
      exit 2
  | r ->
      if json then print_endline (Json.to_string_pretty (Scenario.to_json r))
      else print_string (Scenario.render r);
      if r.Scenario.failure <> None then exit 1

(* Cmdliner plumbing *)

open Cmdliner

let image = Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE")

let path n =
  Arg.(required & pos n (some string) None & info [] ~docv:"PATH")

let format_cmd =
  let size_mb =
    Arg.(value & opt int 64 & info [ "size-mb" ] ~doc:"Image size in MB.")
  in
  let block_size =
    Arg.(value & opt int 4096 & info [ "block-size" ] ~doc:"Block size in bytes.")
  in
  let segment_size =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "segment-size" ] ~doc:"Segment size in bytes.")
  in
  Cmd.v
    (Cmd.info "format" ~doc:"Create and format a new LFS image.")
    Term.(const cmd_format $ image $ size_mb $ block_size $ segment_size)

let simple name doc f extra =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ image $ extra)

let noarg name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ image)

let bench_json =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the figure as lfs-bench/1.")

let () =
  let cmds =
    [
      format_cmd;
      simple "ls" "List a directory." cmd_ls (path 1);
      simple "cat" "Print a file's contents." cmd_cat (path 1);
      Cmd.v
        (Cmd.info "put" ~doc:"Copy a host file into the image.")
        Term.(const cmd_put $ image $ path 1 $ path 2);
      Cmd.v
        (Cmd.info "get" ~doc:"Copy a file out of the image to the host.")
        Term.(const cmd_get $ image $ path 1 $ path 2);
      simple "mkdir" "Create a directory." cmd_mkdir (path 1);
      noarg "tree" "Print the whole namespace." cmd_tree;
      noarg "df" "Show space usage." cmd_df;
      simple "rm" "Remove a file or empty directory." cmd_rm (path 1);
      noarg "info" "Show superblock and log statistics." cmd_info;
      noarg "segments" "Show the segment map." cmd_segments;
      Cmd.v
        (Cmd.info "dump-segment" ~doc:"Decode one segment's summary.")
        Term.(const cmd_dump_segment $ image $ path 1);
      noarg "checkpoints" "Decode both checkpoint regions." cmd_checkpoints;
      noarg "clean" "Run the segment cleaner." cmd_clean;
      (let json =
         Arg.(
           value & flag
           & info [ "json" ]
               ~doc:"Emit the fsck report as JSON instead of text.")
       in
       Cmd.v
         (Cmd.info "fsck"
            ~doc:
              "Walk and verify the whole namespace, run the deep \
               structural checks (double references, wild addresses, \
               orphans, link counts) and report segment-usage drift \
               against recomputed ground truth.  Exits non-zero on any \
               problem.")
         Term.(const cmd_fsck $ image $ json));
      (let json =
         Arg.(
           value & flag
           & info [ "json" ] ~doc:"Emit the registry snapshot as JSON.")
       in
       Cmd.v
         (Cmd.info "stats"
            ~doc:"Mount the image and print its metrics registry.")
         Term.(const cmd_stats $ image $ json));
      (let with_ffs =
         Arg.(
           value & flag
           & info [ "ffs" ]
               ~doc:
                 "Also replay the ops on a scratch FFS of the same size, \
                  for comparison.")
       in
       let ops =
         Arg.(value & pos_right 0 string [] & info [] ~docv:"OP")
       in
       let limit =
         Arg.(
           value
           & opt (some int) None
           & info [ "limit" ]
               ~doc:
                 "Keep only the newest $(docv) events (ring capture).  A \
                  truncated stream ends in a trace_truncated trailer and \
                  the footer reports the drop count."
               ~docv:"N")
       in
       Cmd.v
         (Cmd.info "trace"
            ~doc:
              "Replay ops (mkdir:P create:P write:P:N read:P delete:P \
               sync; default: two small file creations plus sync) against \
               the image in memory and emit the trace-bus events as \
               JSONL.  The image file is not modified.")
         Term.(const cmd_trace $ image $ with_ffs $ limit $ ops));
      (let workload =
         Arg.(
           required
           & pos 0 (some string) None
           & info [] ~docv:"WORKLOAD"
               ~doc:"One of smallfile, largefile or trace.")
       in
       let files =
         Arg.(
           value & opt int 400
           & info [ "files" ] ~doc:"smallfile: number of files.")
       in
       let file_size =
         Arg.(
           value & opt int 1024
           & info [ "file-size" ] ~doc:"smallfile: file size in bytes.")
       in
       let file_mb =
         Arg.(
           value & opt int 4
           & info [ "file-mb" ] ~doc:"largefile: file size in MB.")
       in
       let tree =
         Arg.(
           value & flag
           & info [ "tree" ] ~doc:"Also print the aggregate span tree.")
       in
       Cmd.v
         (Cmd.info "profile"
            ~doc:
              "Run a scratch workload on both LFS and FFS with the \
               latency-attribution profiler subscribed, and print \
               per-operation latency percentiles (simulated us) plus the \
               exclusive-time split across cache/CPU, disk, cleaner \
               interference and checkpoints: the bench profile figure \
               with other workloads.  The four attribution columns sum to \
               the operation's total; the tool exits non-zero if they do \
               not (within 1%) or p50 exceeds p99.  No image needed.")
         Term.(
           const cmd_profile $ workload $ files $ file_size $ file_mb $ tree
           $ bench_json));
      (let base =
         Arg.(
           required & pos 0 (some string) None & info [] ~docv:"BASELINE")
       in
       let cur =
         Arg.(
           required & pos 1 (some string) None & info [] ~docv:"CURRENT")
       in
       let tolerance =
         Arg.(
           value & opt float 5.0
           & info [ "tolerance" ]
               ~doc:"Allowed change per metric, in percent." ~docv:"PCT")
       in
       let gate =
         Arg.(
           value & flag
           & info [ "gate" ]
               ~doc:
                 "Exit non-zero if any metric regressed or vanished — the \
                  regression gate for committed baselines.")
       in
       let json =
         Arg.(
           value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
       in
       Cmd.v
         (Cmd.info "benchdiff"
            ~doc:
              "Compare two lfs-bench/1 result files metric by metric: \
               throughputs and ratios must not fall, times and I/O \
               volumes must not rise, and metrics with no known \
               direction must not drift, each beyond the tolerance.")
         Term.(const cmd_benchdiff $ base $ cur $ tolerance $ gate $ json));
      (let json =
         Arg.(
           value & flag
           & info [ "json" ] ~doc:"Emit the crash-test report as JSON.")
       in
       let files =
         Arg.(
           value & opt int 6
           & info [ "files" ] ~doc:"Files in the scratch workload.")
       in
       let size =
         Arg.(
           value & opt int 2048
           & info [ "file-size" ] ~doc:"Base file size in bytes.")
       in
       let seed =
         Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Fault-injection seed.")
       in
       Cmd.v
         (Cmd.info "crashtest"
            ~doc:
              "Run the fault-injection recovery sweeps on scratch \
               in-memory stacks (no image needed): crash at every write \
               boundary of a small workload on both LFS and FFS, tear \
               the crashing write on LFS, inject transient read errors \
               into a full read-back, and mark LFS checkpoint region A \
               sticky-bad so recovery must fall back to region B.  \
               Exits non-zero if any replay violates the durable model.")
         Term.(const cmd_crashtest $ json $ files $ size $ seed));
      (let clients =
         Arg.(
           value & opt int 4
           & info [ "clients" ] ~doc:"Number of concurrent clients.")
       in
       let ops =
         Arg.(
           value & opt int 150
           & info [ "ops" ] ~doc:"Operations per client.")
       in
       let discipline =
         Arg.(
           value & opt string "fcfs"
           & info [ "discipline" ]
               ~doc:
                 "Disk request scheduling discipline: fcfs, scan, cscan, \
                  or none (immediate issue-order service)."
               ~docv:"DISC")
       in
       let disk_mb =
         Arg.(
           value & opt int 64
           & info [ "disk-mb" ] ~doc:"Scratch disk size in MB.")
       in
       let per_client =
         Arg.(
           value & flag
           & info [ "per-client" ]
               ~doc:"Also print each client's latency percentiles.")
       in
       Cmd.v
         (Cmd.info "concurrency"
            ~doc:
              "Run the concurrent multi-client engine on scratch LFS and \
               FFS stacks (no image needed): N closed-loop clients with \
               Zipf-skewed op streams and think times, multiplexed over \
               one instance with a real disk request queue.  Reports \
               aggregate throughput, latency percentiles, queue depth \
               and mean positioning time per system: the bench \
               concurrency figure at one client count and discipline.  \
               Exits non-zero if the per-client accounting does not add \
               up or p50 exceeds p99.")
         Term.(
           const cmd_concurrency $ clients $ ops $ discipline $ disk_mb
           $ per_client $ bench_json));
      (let members =
         Arg.(
           value & opt string "1,2,4"
           & info [ "members" ]
               ~doc:"Comma-separated volume member counts to sweep."
               ~docv:"N,N,...")
       in
       let policy =
         Arg.(
           value & opt string "log_stripe"
           & info [ "policy" ]
               ~doc:"Volume policy: log_stripe, stripe or mirror."
               ~docv:"POLICY")
       in
       let files =
         Arg.(
           value & opt int 200
           & info [ "files" ] ~doc:"Files written per run.")
       in
       let file_size =
         Arg.(
           value & opt int 8192 & info [ "file-size" ] ~doc:"File size in bytes.")
       in
       Cmd.v
         (Cmd.info "scaleout"
            ~doc:
              "Write small files through LFS and FFS over a multi-disk \
               volume (no image needed), one row per member count: write \
               bandwidth and the busiest member's seek count.  The log's \
               whole-segment writes split into one contiguous run per \
               member, so LFS bandwidth grows with the spindle count \
               while FFS stays pinned to single-disk latency — the bench \
               scaleout figure for one volume policy.")
         Term.(
           const cmd_scaleout $ members $ policy $ files $ file_size
           $ bench_json));
      (let sys =
         Arg.(
           value & opt string "lfs"
           & info [ "system" ] ~doc:"System under test: lfs or ffs."
               ~docv:"SYS")
       in
       let mix =
         Arg.(
           value
           & opt (some string) None
           & info [ "mix" ]
               ~doc:
                 "Weighted op mix, e.g. create=3,read=4,overwrite=2 \
                  (kinds: create, mkdir, read, overwrite, append, \
                  truncate, rename, delete, sync)."
               ~docv:"MIX")
       in
       let count =
         Arg.(
           value & opt int 48
           & info [ "count" ] ~doc:"Total operations generated.")
       in
       let payload =
         Arg.(
           value & opt int 2500
           & info [ "payload" ] ~doc:"Payload scale in bytes.")
       in
       let clients =
         Arg.(
           value
           & opt (some int) None
           & info [ "clients" ]
               ~doc:"Run through the multi-client engine with N clients.")
       in
       let think =
         Arg.(
           value
           & opt (some string) None
           & info [ "think" ]
               ~doc:"Client think time LO:HI in microseconds (engine mode)."
               ~docv:"LO:HI")
       in
       let sweep =
         Arg.(
           value & flag
           & info [ "sweep" ]
               ~doc:"Crash-point sweep: recovery at every write boundary.")
       in
       let boundaries =
         Arg.(
           value & opt int 48
           & info [ "boundaries" ] ~doc:"Sweep boundary cap.")
       in
       let torn =
         Arg.(
           value & flag
           & info [ "torn" ] ~doc:"Tear the crashing write (sweep mode).")
       in
       let transient =
         Arg.(
           value
           & opt (some float) None
           & info [ "transient" ]
               ~doc:"Transient read-fault probability per request."
               ~docv:"RATE")
       in
       let burst =
         Arg.(
           value & opt int 1
           & info [ "burst" ]
               ~doc:"Consecutive failures per transient fault.")
       in
       let read_back =
         Arg.(
           value & flag
           & info [ "read-back" ]
               ~doc:
                 "Read-back run: write, drop caches and read everything \
                  back under the transient faults.")
       in
       let bad_sector =
         Arg.(
           value & flag
           & info [ "bad-sector" ]
               ~doc:
                 "Sticky bad sector over LFS checkpoint region A; \
                  recovery must fall back to region B.")
       in
       let volume =
         Arg.(
           value
           & opt (some string) None
           & info [ "volume" ]
               ~doc:
                 "Run on a multi-disk volume instead of a single disk: \
                  stripe:MEMBERS:CHUNK, log_stripe:MEMBERS:STRIPE or \
                  mirror:MEMBERS (chunk and stripe in sectors)."
               ~docv:"SPEC")
       in
       let fault_member =
         Arg.(
           value
           & opt (some int) None
           & info [ "fault-member" ]
               ~doc:
                 "Confine injected faults to one volume member \
                  (stream/engine modes; requires --volume)."
               ~docv:"I")
       in
       let plant =
         Arg.(
           value & flag
           & info [ "plant" ]
               ~doc:
                 "Install a deliberately failing invariant to exercise \
                  the shrink and replay loop.")
       in
       let json =
         Arg.(
           value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
       in
       let seed =
         Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scenario seed.")
       in
       let replay =
         Arg.(
           value
           & opt (some int) None
           & info [ "replay" ]
               ~doc:
                 "Replay a failing scenario from the seed printed in its \
                  replay line (overrides --seed)."
               ~docv:"SEED")
       in
       Cmd.v
         (Cmd.info "scenario"
            ~doc:
              "Run a declarative scenario on scratch in-memory stacks \
               (no image needed): a seeded op stream checked against the \
               pure reference model by default; --clients for a \
               multi-client engine run, --sweep for a crash-point \
               recovery sweep, --read-back with --transient for a \
               fault-absorption run.  A failing scenario is minimized \
               by delta-debugging and printed with a one-line --replay \
               invocation; exits non-zero on failure.")
         Term.(
           const cmd_scenario $ sys $ mix $ count $ payload $ clients
           $ think $ sweep $ boundaries $ torn $ transient $ burst
           $ read_back $ bad_sector $ volume $ fault_member $ plant $ json
           $ seed $ replay));
    ]
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "lfstool" ~version:"1.0"
             ~doc:"Inspect and modify LFS disk images.")
          cmds))
