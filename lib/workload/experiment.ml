(* The experiment table: every figure of the paper's evaluation (Figures
   1-5), the ablations listed in DESIGN.md and the concurrency/scale-out
   figures, each defined once.  An entry carries its parameters for the
   two named profiles as data, a runner that returns the rendered text
   and the JSON figure instead of printing them, and the invariants
   [--check-json] enforces on that figure.  bench/main.exe loops over
   the table; lfstool's profile/concurrency/scaleout subcommands build
   one entry's parameters from their flags and call the same runner.

   All rates are in *simulated* time on the paper's hardware model (WREN
   IV disk, Sun-4/260 CPU); see EXPERIMENTS.md for paper-vs-measured
   commentary. *)

module Config = Lfs_core.Config
module Io = Lfs_disk.Io
module Disk = Lfs_disk.Disk
module J = Lfs_obs.Json
module Metrics = Lfs_obs.Metrics
module Prof = Lfs_obs.Profile
module Table = Lfs_util.Table

type output = { text : string; figure : J.t option }

(* ------------------------------------------------------------------ *)
(* Checks and the entry type                                           *)
(* ------------------------------------------------------------------ *)

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

let num entry field =
  match J.member field entry with
  | Some v -> (
      match J.to_float_opt v with
      | Some f -> f
      | None -> reject "field %S is not a number" field)
  | None -> reject "missing field %S" field

let str fig entry field =
  match J.member field entry with
  | Some (J.String s) -> s
  | _ -> reject "%s: missing string field %S" fig field

(* What [--check-json] demands of a figure: the numeric [fields] every
   entry carries, a per-entry invariant that holds for any parameters,
   and the figure-wide [claims] that only the full sweep can show. *)
type checks = {
  fields : string list;
  entry : J.t -> unit;
  claims : J.t list -> unit;
}

type 'p spec = {
  name : string;
  aliases : string list;
  title : string;
  quick : 'p;
  paper : 'p;
  run : 'p -> output;
  checks : checks option;  (* [None]: the experiment emits no figure *)
}

type t = Spec : 'p spec -> t

let spec ?(aliases = []) ?fields ?(entry = ignore) ?(claims = ignore) name
    title ~quick ~paper run =
  let checks = Option.map (fun fields -> { fields; entry; claims }) fields in
  Spec { name; aliases; title; quick; paper; run; checks }

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Runners that report as they go write their lines here. *)
let with_text f =
  let b = Buffer.create 4096 in
  let figure = f b in
  { text = Buffer.contents b; figure }

let say b fmt = Printf.bprintf b (fmt ^^ "\n")
let table ~headers rows = { text = Table.render ~headers rows; figure = None }
let figure text entries = { text; figure = Some (J.List entries) }

let lfs_fs ~disk_mb config =
  let io = Setup.make_io ~disk_mb () in
  (match Lfs_core.Fs.format io config with
  | Ok () -> ()
  | Error e -> failwith e);
  match Lfs_core.Fs.mount ~config io with Ok fs -> fs | Error e -> failwith e

let lfs_instance fs = Lfs_vfs.Fs_intf.Instance ((module Lfs_core.Fs), fs)

let counter io name =
  Option.value ~default:0
    (Metrics.counter_value (Metrics.snapshot (Io.metrics io)) name)

let phases_json phases =
  J.Obj (List.map (fun (name, snap) -> (name, Metrics.to_json snap)) phases)

(* A right-sized inode map: the default 65536-file map would put a fixed
   ~1.5 MB of metadata into the log and distort small-disk utilization
   measurements. *)
let small_imap = { Config.default with Config.max_files = 16384 }

(* ------------------------------------------------------------------ *)
(* Figures 1-5                                                         *)
(* ------------------------------------------------------------------ *)

let fig12 disk_mb =
  let results = List.map Creation_trace.run (Setup.both ~disk_mb ()) in
  figure (Report.fig12 results)
    (List.map
       (fun (r : Creation_trace.summary) ->
         J.Obj
           [
             ("label", J.String r.label); ("writes", J.Int r.writes);
             ("sync_writes", J.Int r.sync_writes);
             ("sequential_writes", J.Int r.sequential_writes);
             ("sectors_written", J.Int r.sectors_written);
           ])
       results)

(* [cases] are (file size, file count) pairs. *)
type fig3 = { cases : (int * int) list; disk_mb : int }

let fig3 p =
  let results =
    List.concat_map
      (fun (file_size, nfiles) ->
        List.map
          (fun inst -> Smallfile.run ~nfiles ~file_size inst)
          (Setup.both ~disk_mb:p.disk_mb ()))
      p.cases
  in
  figure (Report.fig3 results)
    (List.map
       (fun (r : Smallfile.result) ->
         J.Obj
           [
             ("label", J.String r.label); ("nfiles", J.Int r.nfiles);
             ("file_size", J.Int r.file_size);
             ("create_per_sec", J.Float r.create_per_sec);
             ("read_per_sec", J.Float r.read_per_sec);
             ("delete_per_sec", J.Float r.delete_per_sec);
             ("phases", phases_json r.phases);
           ])
       results)

type sized = { file_mb : int; disk_mb : int }

let fig4 p =
  let results =
    List.map
      (fun i -> Largefile.run ~file_mb:p.file_mb i)
      (Setup.both ~disk_mb:p.disk_mb ())
  in
  figure (Report.fig4 results)
    (List.map
       (fun (r : Largefile.result) ->
         J.Obj
           [
             ("label", J.String r.label); ("file_mb", J.Int r.file_mb);
             ("seq_write_kbs", J.Float r.seq_write_kbs);
             ("seq_read_kbs", J.Float r.seq_read_kbs);
             ("rand_write_kbs", J.Float r.rand_write_kbs);
             ("rand_read_kbs", J.Float r.rand_read_kbs);
             ("seq_reread_kbs", J.Float r.seq_reread_kbs);
             ("phases", phases_json r.phases);
           ])
       results)

let fig5 disk_mb =
  let utilizations = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ] in
  let points =
    Cleaning.sweep ~utilizations (fun () -> lfs_fs ~disk_mb small_imap)
  in
  figure (Report.fig5 points)
    (List.map
       (fun (p : Cleaning.point) ->
         J.Obj
           [
             ("utilization", J.Float p.utilization);
             ("clean_kb_per_sec", J.Float p.clean_kb_per_sec);
             ("net_kb_per_sec", J.Float p.net_kb_per_sec);
             ("segments_cleaned", J.Int p.segments_cleaned);
             ("write_cost", J.Float p.write_cost);
           ])
       points)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let segsize nfiles =
  let rows =
    List.map
      (fun segment_size ->
        (* Cleaning thresholds are segment counts: scale them so every
           configuration reserves about the same bytes. *)
        let reserve = max 2 (4 * (1 lsl 20) / segment_size) in
        let config =
          {
            Config.default with
            Config.segment_size;
            reserve_segments = reserve;
            clean_threshold_segments = 2 * reserve;
            clean_target_segments = 3 * reserve;
          }
        in
        let inst = lfs_instance (lfs_fs ~disk_mb:64 config) in
        (* The effect of segment size is on the *disk*, not the (CPU-bound)
           application: measure effective write bandwidth — bytes reaching
           the media per second of device busy time.  Small segments pay a
           seek per few blocks and cannot amortize it. *)
        Driver.mkdir inst "/d";
        for i = 0 to nfiles - 1 do
          let path = Printf.sprintf "/d/f%05d" i in
          Driver.create inst path;
          Driver.write inst path ~off:0 (Driver.content ~seed:i 1024);
          if i mod 200 = 199 then Driver.sync inst
        done;
        Driver.sync inst;
        let disk name = counter (Driver.io inst) ("disk." ^ name) in
        let sectors_written = disk "sectors_written" in
        let busy_us = disk "busy_us" in
        let seeks = disk "seeks" in
        Driver.sanitize inst;
        let bandwidth =
          float_of_int (sectors_written * 512)
          /. (float_of_int busy_us /. 1e6)
          /. 1024.0
        in
        [
          Table.fmt_bytes segment_size;
          Table.fmt_float ~decimals:0 bandwidth;
          string_of_int seeks;
        ])
      [ 64 * 1024; 256 * 1024; 1 lsl 20; 4 lsl 20 ]
  in
  table ~headers:[ "segment size"; "disk write KB/s"; "seeks" ] rows

type overwrites = { disk_mb : int; ops : int }

let policy (p : overwrites) =
  let rows =
    List.concat_map
      (fun theta ->
        List.map
          (fun policy ->
            let cells =
              [ Config.policy_name policy; Table.fmt_float ~decimals:2 theta ]
            in
            (* A policy that cannot regenerate free space fast enough
               collapses with ENOSPC — that is a result, not a crash. *)
            match
              Hotcold.run ~theta ~ops:p.ops ~disk_utilization:0.7 ~policy
                (lfs_fs ~disk_mb:p.disk_mb small_imap)
            with
            | r ->
                cells
                @ [
                    Table.fmt_float ~decimals:2 r.Hotcold.write_cost;
                    Table.fmt_float ~decimals:0 r.Hotcold.write_kbs;
                    string_of_int r.Hotcold.segments_cleaned;
                  ]
            | exception Driver.Benchmark_failure _ ->
                cells @ [ "collapsed"; "-"; "-" ])
          [ Config.Greedy; Config.Cost_benefit; Config.Oldest ])
      [ 0.0; 0.99 ]
  in
  table ~headers:[ "policy"; "theta"; "write cost"; "KB/s"; "cleaned" ] rows

let util (p : overwrites) =
  let rows =
    List.map
      (fun u ->
        let r =
          Hotcold.run ~theta:0.0 ~ops:p.ops ~disk_utilization:u
            ~policy:Config.Greedy
            (lfs_fs ~disk_mb:p.disk_mb small_imap)
        in
        [
          Table.fmt_float ~decimals:2 u;
          Table.fmt_float ~decimals:2 r.Hotcold.write_cost;
          Table.fmt_float ~decimals:0 r.Hotcold.write_kbs;
        ])
      [ 0.2; 0.35; 0.5; 0.65; 0.8 ]
  in
  table ~headers:[ "disk utilization"; "write cost"; "write KB/s" ] rows

let checkpoint_row disk_mb (interval_s, roll_forward) =
  let config =
    {
      Config.default with
      Config.checkpoint_interval_us = interval_s * 1_000_000;
      roll_forward;
    }
  in
  let fs = lfs_fs ~disk_mb config in
  let inst = lfs_instance fs in
  let io = Driver.io inst in
  (* Write files for ~90 simulated seconds (capped at ~60% of the disk),
     syncing every few files but never checkpointing explicitly —
     periodic checkpoints happen only at the configured interval.  Then
     crash (no unmount) and measure recovery. *)
  let layout = Lfs_core.Fs.layout fs in
  let max_files =
    layout.Lfs_core.Layout.nsegments * layout.Lfs_core.Layout.payload_blocks
    * layout.Lfs_core.Layout.block_size * 6 / 10
    / (4096 + Lfs_core.Layout.inode_bytes)
  in
  let i = ref 0 in
  while Io.now_us io < 90_000_000 && !i < max_files do
    let path = Printf.sprintf "/f%06d" !i in
    Driver.create inst path;
    Driver.write inst path ~off:0 (Driver.content ~seed:!i 4096);
    if !i mod 10 = 9 then Driver.sync inst;
    incr i
  done;
  (* Everything synced so far is in the log; whether recovery sees it
     depends on roll-forward vs the last periodic checkpoint. *)
  let written = !i in
  let t0 = Io.now_us io in
  let fs2 =
    match Lfs_core.Fs.mount ~config io with
    | Ok fs -> fs
    | Error e -> failwith e
  in
  let recovery_us = Io.now_us io - t0 in
  let survived =
    match Lfs_core.Fs.readdir fs2 "/" with
    | Ok names -> List.length names
    | Error _ -> 0
  in
  (match Lfs_core.Fs.integrity fs2 with
  | [] -> ()
  | issues ->
      failwith
        (Printf.sprintf
           "post-recovery integrity (interval %ds, roll-forward %b): %s"
           interval_s roll_forward
           (String.concat "; " issues)));
  [
    string_of_int interval_s;
    (if roll_forward then "yes" else "no");
    Format.asprintf "%a" Lfs_disk.Clock.pp_duration_us recovery_us;
    Printf.sprintf "%d/%d" survived written;
    string_of_int (counter (Lfs_core.Fs.io fs2) "lfs.rollforward_segments");
  ]

let checkpoint disk_mb =
  table
    ~headers:
      [
        "interval (s)"; "roll-forward"; "recovery time"; "files survived";
        "segs replayed";
      ]
    (List.map (checkpoint_row disk_mb)
       [
         (5, true); (30, true); (120, true); (5, false); (30, false);
         (120, false);
       ])

let scaling nfiles =
  let rows =
    List.map
      (fun speedup ->
        let cpu =
          Lfs_disk.Cpu_model.scale Lfs_disk.Cpu_model.sun4_260
            (1.0 /. float_of_int speedup)
        in
        let rates =
          List.map
            (fun inst ->
              (Smallfile.run ~nfiles ~file_size:1024 inst).Smallfile
                .create_per_sec)
            (Setup.both ~disk_mb:64 ~cpu ())
        in
        match rates with
        | [ lfs; ffs ] ->
            [
              Printf.sprintf "%dx" speedup;
              Table.fmt_float ~decimals:0 lfs;
              Table.fmt_float ~decimals:0 ffs;
            ]
        | _ -> assert false)
      [ 1; 2; 5; 10 ]
  in
  let t = table ~headers:[ "CPU speed"; "LFS create/s"; "FFS create/s" ] rows in
  {
    t with
    text =
      t.text
      ^ "\nLFS creation rate scales with the CPU; FFS stays pinned to disk\n\
         latency - the paper's MicroVAX-to-DecStation observation.\n";
  }

let cache events =
  let trace =
    Trace.generate
      ~config:{ Trace.default_gen with Trace.events; target_live = 800 }
      ()
  in
  let rows =
    List.map
      (fun cache_mb ->
        let lfs_config =
          {
            Config.default with
            Config.cache_blocks = cache_mb * 1024 * 1024 / 4096;
          }
        in
        let ffs_config =
          {
            Lfs_ffs.Config.default with
            Lfs_ffs.Config.cache_blocks = cache_mb * 1024 * 1024 / 8192;
          }
        in
        let measure inst =
          let r = Trace.replay inst trace in
          ( r.Trace.ops_per_sec,
            counter (Driver.io inst) "disk.sectors_read" * 512 )
        in
        let lfs_ops, lfs_read =
          measure (Setup.lfs ~disk_mb:128 ~config:lfs_config ())
        in
        let ffs_ops, ffs_read =
          measure (Setup.ffs ~disk_mb:128 ~config:ffs_config ())
        in
        [
          Printf.sprintf "%d MB" cache_mb;
          Table.fmt_float ~decimals:0 lfs_ops;
          Table.fmt_bytes lfs_read;
          Table.fmt_float ~decimals:0 ffs_ops;
          Table.fmt_bytes ffs_read;
          Table.fmt_ratio (lfs_ops /. ffs_ops);
        ])
      [ 1; 4; 16 ]
  in
  let t =
    table
      ~headers:
        [
          "cache"; "LFS ops/s"; "LFS disk reads"; "FFS ops/s"; "FFS disk reads";
          "speedup";
        ]
      rows
  in
  {
    t with
    text =
      t.text
      ^ "\nBigger caches soak up reads on both systems; what remains is write\n\
         traffic, which is exactly where the log wins - the paper's premise.\n";
  }

type replay = { events : int; target_live : int }

let trace p =
  let ops =
    Trace.generate
      ~config:
        {
          Trace.default_gen with
          Trace.events = p.events;
          target_live = p.target_live;
        }
      ()
  in
  let results =
    List.map (fun inst -> Trace.replay inst ops) (Setup.both ~disk_mb:128 ())
  in
  let t =
    table
      ~headers:[ "system"; "ops"; "ops/s"; "written"; "read" ]
      (List.map
         (fun (r : Trace.result) ->
           [
             r.label;
             string_of_int r.ops;
             Table.fmt_float ~decimals:0 r.ops_per_sec;
             Table.fmt_bytes r.bytes_written;
             Table.fmt_bytes r.bytes_read;
           ])
         results)
  in
  match results with
  | [ lfs; ffs ] ->
      {
        t with
        text =
          t.text
          ^ Printf.sprintf
              "\nLFS end-to-end speedup on the mixed workload: %s\n"
              (Table.fmt_ratio
                 (lfs.Trace.ops_per_sec /. ffs.Trace.ops_per_sec));
      }
  | _ -> t

(* ------------------------------------------------------------------ *)
(* Clustered reads + sequential read-ahead                             *)
(* ------------------------------------------------------------------ *)

(* Cold sequential re-read of one large file with 8 KB requests, with
   the read optimizations disabled and enabled.  The interesting numbers
   are disk read *requests* (clustering and read-ahead turn many
   single-block reads into few multi-block ones) and simulated read
   bandwidth (per-request CPU and missed-rotation costs disappear when
   the data arrives in large transfers). *)

(* The read-path counters a re-read reports, under their figure names. *)
let reread_counters =
  [
    ("readahead_issued", "io.readahead.issued");
    ("readahead_hit", "io.readahead.hit");
    ("readahead_wasted", "io.readahead.wasted");
    ("clustered_read_requests", "io.clustered_reads");
    ("clustered_read_blocks", "io.clustered_read_blocks");
  ]

type reread = {
  kbs : float;
  reads : int;
  sectors : int;
  counts : (string * int) list;  (* [reread_counters] deltas *)
}

let readahead_measure ~file_mb inst =
  let request = 8192 in
  let size = file_mb * 1024 * 1024 in
  let nreq = size / request in
  let path = "/bigfile" in
  Driver.create inst path;
  for i = 0 to nreq - 1 do
    Driver.write inst path ~off:(i * request) (Driver.content ~seed:i request)
  done;
  Driver.sync inst;
  Driver.flush_caches inst;
  let io = Driver.io inst in
  let snap () =
    ( counter io "disk.reads",
      counter io "disk.sectors_read",
      List.map (fun (_, name) -> counter io name) reread_counters )
  in
  let reads0, sectors0, counts0 = snap () in
  let t0 = Io.now_us io in
  for i = 0 to nreq - 1 do
    ignore (Driver.read inst path ~off:(i * request) ~len:request)
  done;
  let elapsed_us = Io.now_us io - t0 in
  let reads1, sectors1, counts1 = snap () in
  Driver.sanitize inst;
  {
    kbs = float_of_int size /. 1024.0 /. (float_of_int elapsed_us /. 1e6);
    reads = reads1 - reads0;
    sectors = sectors1 - sectors0;
    counts =
      List.combine (List.map fst reread_counters)
        (List.map2 ( - ) counts1 counts0);
  }

let readahead { file_mb; disk_mb } =
  let measure = readahead_measure ~file_mb in
  let lfs_off =
    { Config.default with Config.read_clustering = false; readahead_blocks = 0 }
  in
  let ffs_off =
    {
      Lfs_ffs.Config.default with
      Lfs_ffs.Config.read_clustering = false;
      readahead_blocks = 0;
    }
  in
  let systems =
    [
      ( "LFS",
        measure (Setup.lfs ~disk_mb ~config:lfs_off ()),
        measure (Setup.lfs ~disk_mb ()) );
      ( "FFS",
        measure (Setup.ffs ~disk_mb ~config:ffs_off ()),
        measure (Setup.ffs ~disk_mb ()) );
    ]
  in
  let read_ratio b c = float_of_int b.reads /. float_of_int (max 1 c.reads) in
  let entry (label, b, c) =
    J.Obj
      ([
         ("label", J.String label); ("file_mb", J.Int file_mb);
         ("base_reads", J.Int b.reads); ("base_sectors", J.Int b.sectors);
         ("base_kbs", J.Float b.kbs); ("clustered_reads", J.Int c.reads);
         ("clustered_sectors", J.Int c.sectors);
         ("clustered_kbs", J.Float c.kbs);
         ("read_ratio", J.Float (read_ratio b c));
         ("bandwidth_ratio", J.Float (c.kbs /. b.kbs));
       ]
      @ List.map (fun (k, v) -> (k, J.Int v)) c.counts)
  in
  let row (label, b, c) =
    let count k = List.assoc k c.counts in
    [
      label;
      string_of_int b.reads;
      string_of_int c.reads;
      Table.fmt_ratio (read_ratio b c);
      Table.fmt_float ~decimals:0 b.kbs;
      Table.fmt_float ~decimals:0 c.kbs;
      Table.fmt_ratio (c.kbs /. b.kbs);
      Printf.sprintf "%d/%d/%d" (count "readahead_issued")
        (count "readahead_hit") (count "readahead_wasted");
    ]
  in
  figure
    (Table.render
       ~headers:
         [
           "system"; "reads (off)"; "reads (on)"; "fewer"; "KB/s (off)";
           "KB/s (on)"; "speedup"; "ra issued/hit/wasted";
         ]
       (List.map row systems))
    (List.map entry systems)

(* Every prefetched block is eventually either consumed (hit) or written
   off (wasted), never both, so the served total cannot exceed what was
   issued. *)
let readahead_entry e =
  let issued = num e "readahead_issued" in
  let hit = num e "readahead_hit" in
  let wasted = num e "readahead_wasted" in
  if hit +. wasted > issued then
    reject "readahead: hit (%g) + wasted (%g) > issued (%g)" hit wasted issued

(* ------------------------------------------------------------------ *)
(* Crash recovery: LFS checkpoint + roll-forward vs FFS fsck           *)
(* ------------------------------------------------------------------ *)

let recovery_row nfiles =
  let disk_mb = max 32 (nfiles * 12 / 1024) in
  (* Identical populations on both systems.  LFS checkpoints at 90% (a
     periodic checkpoint would have happened anyway), writes the final
     10%, syncs — then the machine "crashes".  FFS syncs and crashes the
     same way. *)
  let lfs_fs = lfs_fs ~disk_mb Config.default in
  let lfs_inst = lfs_instance lfs_fs in
  let ffs_inst = Setup.ffs ~disk_mb () in
  let populate ?checkpoint_at inst =
    for d = 0 to ((nfiles + 99) / 100) - 1 do
      Driver.mkdir inst (Printf.sprintf "/d%04d" d)
    done;
    for i = 0 to nfiles - 1 do
      let path = Printf.sprintf "/d%04d/f%05d" (i / 100) i in
      Driver.create inst path;
      Driver.write inst path ~off:0 (Driver.content ~seed:i 2048);
      if i mod 200 = 199 then Driver.sync inst;
      match checkpoint_at with
      | Some n when i = n -> Lfs_core.Fs.checkpoint_now lfs_fs
      | Some _ | None -> ()
    done;
    Driver.sync inst
  in
  populate ~checkpoint_at:(nfiles * 9 / 10) lfs_inst;
  populate ffs_inst;
  let lfs_io = Driver.io lfs_inst in
  let media = Io.snapshot_media lfs_io in
  (* After the timer stops — the scan must not count as recovery time. *)
  let audit what fs =
    match Lfs_core.Fs.integrity fs with
    | [] -> ()
    | issues -> failwith (what ^ " integrity: " ^ String.concat "; " issues)
  in
  let timed_mount what ?config () =
    let t0 = Io.now_us lfs_io in
    match Lfs_core.Fs.mount ?config lfs_io with
    | Ok fs -> (fs, Io.now_us lfs_io - t0)
    | Error e -> failwith (what ^ ": " ^ e)
  in
  (* Recovery with roll-forward: replays the synced 10% tail. *)
  let seg0 = counter lfs_io "lfs.rollforward_segments" in
  let rf_fs, rf_us = timed_mount "LFS recovery" () in
  let segments_replayed = counter lfs_io "lfs.rollforward_segments" - seg0 in
  audit "post-roll-forward" rf_fs;
  (* The paper's 1990 configuration: checkpoint only, no roll-forward —
     recovery is just the mount code. *)
  Io.restore_media lfs_io media;
  let config = { Config.default with Config.roll_forward = false } in
  let cp_fs, cp_us = timed_mount "LFS cp-only recovery" ~config () in
  audit "post-checkpoint-only" cp_fs;
  let fsck_us =
    match Lfs_ffs.Fsck.run (Driver.io ffs_inst) with
    | Ok r -> r.Lfs_ffs.Fsck.elapsed_us
    | Error e -> failwith ("fsck: " ^ e)
  in
  Driver.sanitize ffs_inst;
  let ratio = float_of_int fsck_us /. float_of_int (max 1 rf_us) in
  let dur us = Format.asprintf "%a" Lfs_disk.Clock.pp_duration_us us in
  ( J.Obj
      [
        ("files", J.Int nfiles); ("lfs_checkpoint_us", J.Int cp_us);
        ("lfs_rollforward_us", J.Int rf_us);
        ("segments_replayed", J.Int segments_replayed);
        ("ffs_fsck_us", J.Int fsck_us);
        ("fsck_over_rollforward", J.Float ratio);
      ],
    [
      string_of_int nfiles; dur cp_us; dur rf_us;
      string_of_int segments_replayed; dur fsck_us; Table.fmt_ratio ratio;
    ] )

let recovery cases =
  let entries, rows = List.split (List.map recovery_row cases) in
  figure
    (Table.render
       ~headers:
         [
           "files"; "LFS (checkpoint only)"; "LFS (roll-forward)";
           "segments replayed"; "FFS fsck"; "fsck / LFS-rf";
         ]
       rows)
    entries

(* ------------------------------------------------------------------ *)
(* Profile: per-operation latency attribution                          *)
(* ------------------------------------------------------------------ *)

module Profile = struct
  type workload =
    | Smallfile of { files : int; file_size : int }
    | Largefile of { file_mb : int }
    | Trace

  type params = { workload : workload; disk_mb : int; tree : bool }

  let validate p =
    match p.workload with
    | Smallfile { files; file_size } when files < 0 || file_size < 0 ->
        Error "file count and size must not be negative"
    | Largefile { file_mb } when file_mb < 0 || file_mb >= p.disk_mb ->
        Error
          (Printf.sprintf "a %d MB file does not fit the %d MB scratch disk"
             file_mb p.disk_mb)
    | Smallfile _ | Largefile _ | Trace -> Ok ()

  let describe p =
    match p.workload with
    | Smallfile { files; file_size } when file_size mod 1024 = 0 ->
        Printf.sprintf "%d files of %d KB" files (file_size / 1024)
    | Smallfile { files; file_size } ->
        Printf.sprintf "%d files of %d B" files file_size
    | Largefile { file_mb } -> Printf.sprintf "%d MB file" file_mb
    | Trace -> "trace replay"

  (* Per op: latency percentiles plus the exclusive-time split across
     cache/CPU, disk, cleaner and checkpoint work — the four columns sum
     to the op's total by construction. *)
  let run p =
    let trace = lazy (Trace.generate ()) in
    with_text @@ fun b ->
    let entries =
      List.concat_map
        (fun inst ->
          let prof = Prof.attach (Driver.bus inst) in
          (match p.workload with
          | Smallfile { files; file_size } ->
              ignore (Smallfile.run ~nfiles:files ~file_size inst)
          | Largefile { file_mb } -> ignore (Largefile.run ~file_mb inst)
          | Trace -> ignore (Trace.replay inst (Lazy.force trace)));
          Prof.detach prof;
          let rep = Prof.report prof in
          let label = Driver.label inst in
          say b "%s (%s, %d MB disk, simulated us):" label (describe p)
            p.disk_mb;
          Buffer.add_string b (Prof.render_ops rep);
          if p.tree then Printf.bprintf b "\n%s" (Prof.render_tree rep);
          say b "";
          List.map
            (fun s -> J.Obj (("label", J.String label) :: Prof.op_fields s))
            rep.ops)
        (Setup.both ~disk_mb:p.disk_mb ())
    in
    Some (J.List entries)

  (* The four exclusive-time columns must sum to the op's total (within
     1% — they sum exactly by construction, so any drift is an
     instrumentation bug), and quantiles must be ordered. *)
  let check e =
    let total = num e "total_us" in
    let parts =
      num e "cache_us" +. num e "disk_us" +. num e "cleaner_us"
      +. num e "checkpoint_us"
    in
    if Float.abs (parts -. total) > Float.max 1.0 (total /. 100.0) then
      reject "profile: %s %s: attribution %g does not sum to total %g"
        (str "profile" e "label") (str "profile" e "op") parts total;
    let p50 = num e "p50_us" and p99 = num e "p99_us" in
    if p50 > p99 then reject "profile: p50 (%g) > p99 (%g)" p50 p99

  (* The small-file workload (Figure 3's shape) on a deliberately small
     disk, so the log wraps and cleaner/checkpoint interference shows up
     in the attribution columns. *)
  let entry =
    let smallfile files disk_mb =
      let workload = Smallfile { files; file_size = 1024 } in
      { workload; disk_mb; tree = false }
    in
    spec "profile"
      "Profile: per-operation latency attribution (small-file workload)"
      ~quick:(smallfile 1000 16) ~paper:(smallfile 5000 48) run ~entry:check
      ~fields:
        [
          "count"; "total_us"; "mean_us"; "p50_us"; "p95_us"; "p99_us";
          "cache_us"; "disk_us"; "cleaner_us"; "checkpoint_us";
        ]
end

(* ------------------------------------------------------------------ *)
(* Concurrency: multi-client engine under a real request scheduler     *)
(* ------------------------------------------------------------------ *)

(* Aggregate throughput and latency percentiles vs client count, LFS vs
   FFS, under FCFS vs C-SCAN.  LFS's asynchronous log absorbs added
   clients — throughput keeps scaling with offered load — while FFS's
   synchronous metadata writes convoy every client behind the disk;
   C-SCAN buys back positioning time exactly where the device queue runs
   deep (FFS's scattered write-back), and changes nothing where the log
   is already sequential. *)
module Concurrency = struct
  type params = {
    clients : int list;
    ops : int;
    disk_mb : int;
    disciplines : Lfs_disk.Sched.discipline option list;
    per_client : bool;
  }

  let validate p =
    if List.exists (fun c -> c < 1) p.clients then
      Error "client count must be at least 1"
    else if p.ops < 1 then Error "operations per client must be at least 1"
    else if p.disk_mb < 1 then Error "disk size must be at least 1 MB"
    else Ok ()

  let run_one b p discipline clients inst =
    let config =
      { Engine.default with Engine.clients; ops_per_client = p.ops; discipline }
    in
    let r = Engine.run ~config inst in
    say b
      "%-4s %-5s %2d clients: %7.1f ops/s  p50 %6d us  p99 %7d us  qdepth \
       %4.1f  pos %5.0f us"
      r.label r.discipline clients r.ops_per_sec r.p50_us r.p99_us
      r.mean_queue_depth r.mean_positioning_us;
    if p.per_client then
      List.iter
        (fun (s : Engine.client_stat) ->
          say b
            "  client %2d: %4d ops  mean=%d us p50=%d us p99=%d us max=%d us"
            s.client s.ops (int_of_float s.mean_us) s.p50_us s.p99_us s.max_us)
        r.per_client;
    Engine.to_json r

  let run p =
    with_text @@ fun b ->
    Some
      (J.List
         (List.concat_map
            (fun disc ->
              List.concat_map
                (fun clients ->
                  List.map
                    (run_one b p disc clients)
                    (Setup.both ~disk_mb:p.disk_mb ()))
                p.clients)
            p.disciplines))

  (* Per-client ops must add up to the aggregate, and the aggregate
     quantiles must be ordered. *)
  let check e =
    let label = str "concurrency" e "label" in
    let ops =
      match J.member "per_client" e with
      | Some (J.List l) ->
          List.fold_left (fun acc c -> acc + int_of_float (num c "ops")) 0 l
      | _ -> reject "concurrency: %s: missing \"per_client\" list" label
    in
    let total = int_of_float (num e "total_ops") in
    if ops <> total then
      reject "concurrency: %s: per-client ops %d do not sum to total %d" label
        ops total;
    let p50 = num e "p50_us" and p99 = num e "p99_us" in
    if p50 > p99 then
      reject "concurrency: %s: p50 (%g) > p99 (%g)" label p50 p99

  (* (a) LFS aggregate throughput degrades more gracefully than FFS as
     clients grow: the ratio of throughput at the highest client count to
     the lowest must be strictly better for LFS under every discipline.
     (b) Reordering is a real optimisation, not an accounting fiction:
     wherever the FCFS run reaches mean queue depth >= 4, the matching
     C-SCAN run must show strictly lower mean positioning time — and at
     least one such deep pair must exist, or the figure measured
     nothing. *)
  let claims entries =
    let str = str "concurrency" in
    let find label disc clients field =
      match
        List.find_opt
          (fun e ->
            str e "label" = label
            && str e "discipline" = disc
            && int_of_float (num e "clients") = clients)
          entries
      with
      | Some e -> num e field
      | None -> reject "concurrency: missing entry %s/%s/%d" label disc clients
    in
    List.iter
      (fun disc ->
        let cs =
          List.filter_map
            (fun e ->
              if str e "label" = "LFS" && str e "discipline" = disc then
                Some (int_of_float (num e "clients"))
              else None)
            entries
        in
        if cs = [] then reject "concurrency: no LFS entries for %s" disc;
        let lo = List.fold_left min (List.hd cs) cs in
        let hi = List.fold_left max (List.hd cs) cs in
        if hi <= lo then
          reject "concurrency: need more than one client count for %s" disc;
        let ratio label =
          find label disc hi "ops_per_sec" /. find label disc lo "ops_per_sec"
        in
        if ratio "LFS" <= ratio "FFS" then
          reject
            "concurrency: LFS throughput ratio %dx->%dx clients (%g) does not \
             beat FFS (%g) under %s"
            lo hi (ratio "LFS") (ratio "FFS") disc)
      [ "fcfs"; "cscan" ];
    let deep =
      List.filter
        (fun e ->
          str e "discipline" = "fcfs" && num e "mean_queue_depth" >= 4.0)
        entries
    in
    if deep = [] then
      reject "concurrency: no FCFS run reached mean queue depth >= 4";
    List.iter
      (fun e ->
        let label = str e "label" in
        let clients = int_of_float (num e "clients") in
        let fcfs_pos = num e "mean_positioning_us" in
        let cscan_pos = find label "cscan" clients "mean_positioning_us" in
        if cscan_pos >= fcfs_pos then
          reject
            "concurrency: C-SCAN positioning (%g us) not below FCFS (%g us) \
             for %s at %d clients (queue depth %g)"
            cscan_pos fcfs_pos label clients (num e "mean_queue_depth"))
      deep

  let entry =
    let params ops disk_mb =
      {
        clients = [ 1; 2; 4; 8; 16 ];
        ops;
        disk_mb;
        disciplines = [ Some Lfs_disk.Sched.Fcfs; Some Lfs_disk.Sched.Cscan ];
        per_client = false;
      }
    in
    spec "concurrency"
      "Concurrency: N clients over one instance, FCFS vs C-SCAN"
      ~quick:(params 80 48) ~paper:(params 250 96) run ~entry:check ~claims
      ~fields:
        [
          "clients"; "total_ops"; "elapsed_us"; "ops_per_sec"; "mean_us";
          "p50_us"; "p99_us"; "mean_queue_depth"; "mean_queue_wait_us";
          "mean_positioning_us";
        ]
end

(* ------------------------------------------------------------------ *)
(* Scale-out: multi-disk volumes - log bandwidth vs spindle count      *)
(* ------------------------------------------------------------------ *)

(* The paper's closing argument (section 6): because LFS turns all
   writes into large sequential log transfers, its write bandwidth
   should scale with the number of spindles when the log is striped -
   each whole-segment write splits into one contiguous run per member
   and completes in roughly segment/N media time.  FFS issues small
   update-in-place writes that land on one member each and serialize on
   completion, so extra spindles buy it little.  [Log_stripe] aligns the
   stripe with the segment (via [Config.segment_align_sectors]) so every
   member stream stays sequential; plain [Stripe] with a small chunk
   gets the same parallelism but chops each member's stream into
   scattered chunks - the per-member seek counts tell the two apart. *)
module Scaleout = struct
  type policy = Log_stripe | Stripe | Mirror

  let policy_name = function
    | Log_stripe -> "log_stripe"
    | Stripe -> "stripe"
    | Mirror -> "mirror"

  let policy_of_string s =
    List.find_opt (fun p -> policy_name p = s) [ Log_stripe; Stripe; Mirror ]

  type params = {
    member_mb : int;
    files : int;
    file_size : int;
    members : int list;
    policies : policy list;
  }

  let segment_size = Config.default.Config.segment_size
  let stripe_sectors = segment_size / 512

  (* The volume policy, and the segment alignment LFS is formatted with. *)
  let volume = function
    | Log_stripe ->
        (Lfs_disk.Volume.Log_stripe { stripe_sectors }, stripe_sectors)
    | Stripe -> (Lfs_disk.Volume.Stripe { chunk_sectors = 64 }, 0)
    | Mirror -> (Lfs_disk.Volume.Mirror, 0)

  let validate p =
    let uneven n =
      n >= 1 && List.mem Log_stripe p.policies && stripe_sectors mod n <> 0
    in
    match
      (List.find_opt (fun n -> n < 1) p.members, List.find_opt uneven p.members)
    with
    | Some n, _ -> Error (Printf.sprintf "member count %d is below 1" n)
    | None, Some n ->
        Error
          (Printf.sprintf
             "log_stripe splits a %d-sector segment evenly, which %d members \
              cannot"
             stripe_sectors n)
    | None, None when p.files < 0 || p.file_size < 0 ->
        Error "file count and size must not be negative"
    | None, None when p.member_mb < 1 ->
        Error "member size must be at least 1 MB"
    | None, None -> Ok ()

  let run_one b p policy members label mk =
    let io =
      Setup.make_io ~disk_mb:p.member_mb ~cpu:Lfs_disk.Cpu_model.free
        ~volume:(fst (volume policy), members)
        ()
    in
    let inst = mk io in
    (* Seeks are measured as a delta over the timed window: format and
       mount scan per-segment metadata (all of which lands on member 0
       under a stripe) and would otherwise swamp the steady-state log
       behaviour this figure is about. *)
    let member_seeks () =
      List.init members (fun i -> (Io.member_stats io i).Disk.seeks)
    in
    let seeks_at_start = member_seeks () in
    let t0 = Io.now_us io in
    for i = 0 to p.files - 1 do
      let path = Printf.sprintf "/f%05d" i in
      Driver.create inst path;
      Driver.write inst path ~off:0 (Driver.content ~seed:i p.file_size);
      (* Sync once per segment's worth of data: frequent enough that FFS
         cannot hide in its cache, rare enough that the log still ships
         (mostly) whole segments. *)
      if (i + 1) * p.file_size mod segment_size = 0 then Driver.sync inst
    done;
    Driver.sync inst;
    let elapsed_us = max 1 (Io.now_us io - t0) in
    let seeks = List.map2 ( - ) (member_seeks ()) seeks_at_start in
    let sectors_written = counter io "disk.sectors_written" in
    Driver.sanitize inst;
    let mbs =
      float_of_int (p.files * p.file_size)
      /. 1024.0 /. 1024.0
      /. (float_of_int elapsed_us /. 1e6)
    in
    let max_seeks = List.fold_left max 0 seeks in
    say b "%-4s %-10s %d member%s: %6.2f MB/s  seeks/member max %5d" label
      (policy_name policy) members
      (if members = 1 then " " else "s")
      mbs max_seeks;
    J.Obj
      [
        ("label", J.String label); ("policy", J.String (policy_name policy));
        ("members", J.Int members); ("files", J.Int p.files);
        ("file_size", J.Int p.file_size); ("elapsed_us", J.Int elapsed_us);
        ("write_mb_per_sec", J.Float mbs);
        ("sectors_written", J.Int sectors_written);
        ("seeks_per_member_max", J.Int max_seeks);
        ("seeks_per_member_min", J.Int (List.fold_left min max_int seeks));
      ]

  let run p =
    with_text @@ fun b ->
    let entries =
      List.concat_map
        (fun policy ->
          let config =
            {
              Config.default with
              Config.segment_align_sectors = snd (volume policy);
            }
          in
          List.concat_map
            (fun members ->
              let run = run_one b p policy members in
              [
                run "LFS" (fun io -> Setup.lfs_on io ~config ());
                run "FFS" (fun io -> Setup.ffs_on io ());
              ])
            p.members)
        p.policies
    in
    say b
      "\nLFS write bandwidth grows with the member count because every\n\
       segment write splits into one contiguous run per spindle; FFS\n\
       serializes small writes and stays pinned to one-disk latency.";
    Some (J.List entries)

  (* (a) Striping the log works: LFS write bandwidth under [log_stripe]
     grows at least 3x from 1 to 4 members while FFS gains under 1.5x
     from the same spindles.  (b) The segment-aligned stripe keeps every
     member's stream sequential: the busiest member of a 4-way log stripe
     seeks at most twice as often as the single-disk log does. *)
  let claims entries =
    let find label members field =
      match
        List.find_opt
          (fun e ->
            str "scaleout" e "label" = label
            && str "scaleout" e "policy" = "log_stripe"
            && int_of_float (num e "members") = members)
          entries
      with
      | Some e -> num e field
      | None -> reject "scaleout: missing entry %s/log_stripe/%d" label members
    in
    let scaling label =
      find label 4 "write_mb_per_sec" /. find label 1 "write_mb_per_sec"
    in
    if scaling "LFS" < 3.0 then
      reject "scaleout: LFS log_stripe 1->4 members scales %gx, want >= 3x"
        (scaling "LFS");
    if scaling "FFS" >= 1.5 then
      reject "scaleout: FFS 1->4 members scales %gx, expected < 1.5x"
        (scaling "FFS");
    let single = find "LFS" 1 "seeks_per_member_max" in
    let striped = find "LFS" 4 "seeks_per_member_max" in
    if striped > 2.0 *. single then
      reject
        "scaleout: per-member seeks under log_stripe (%g) exceed 2x the \
         single-disk log (%g)"
        striped single

  let entry =
    let params member_mb files =
      {
        member_mb;
        files;
        file_size = 8 * 1024;
        members = [ 1; 2; 4; 8 ];
        policies = [ Log_stripe; Stripe ];
      }
    in
    spec "scaleout" "Scale-out: write bandwidth vs volume members (striped log)"
      ~quick:(params 16 256) ~paper:(params 48 1024) run ~claims
      ~fields:
        [
          "members"; "files"; "file_size"; "elapsed_us"; "write_mb_per_sec";
          "sectors_written"; "seeks_per_member_max"; "seeks_per_member_min";
        ]
end

(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

let all =
  [
    spec "fig12" ~aliases:[ "fig1"; "fig2" ]
      "Figures 1 & 2: disk writes for the two-file creation example"
      ~quick:16 ~paper:64 fig12
      ~fields:[ "writes"; "sync_writes"; "sectors_written" ];
    spec "fig3" "Figure 3: small-file create/read/delete rates"
      ~quick:{ cases = [ (1024, 1000); (10 * 1024, 200) ]; disk_mb = 64 }
      ~paper:{ cases = [ (1024, 10_000); (10 * 1024, 1_000) ]; disk_mb = 300 }
      fig3
      ~fields:[ "create_per_sec"; "read_per_sec"; "delete_per_sec" ];
    spec "fig4" "Figure 4: large-file transfer rates (8 KB requests)"
      ~quick:{ file_mb = 8; disk_mb = 64 }
      ~paper:{ file_mb = 100; disk_mb = 300 }
      fig4
      ~fields:
        [
          "seq_write_kbs"; "seq_read_kbs"; "rand_write_kbs"; "rand_read_kbs";
          "seq_reread_kbs";
        ];
    spec "fig5" "Figure 5: segment cleaning rate vs utilization" ~quick:24
      ~paper:48 fig5
      ~fields:[ "utilization"; "clean_kb_per_sec"; "write_cost" ];
    spec "readahead" "Clustered reads + read-ahead: cold sequential re-read"
      ~quick:{ file_mb = 4; disk_mb = 64 }
      ~paper:{ file_mb = 32; disk_mb = 128 }
      readahead ~entry:readahead_entry
      ~fields:
        [
          "base_reads"; "base_kbs"; "clustered_reads"; "clustered_kbs";
          "read_ratio"; "bandwidth_ratio"; "readahead_issued"; "readahead_hit";
          "readahead_wasted";
        ];
    Profile.entry;
    Concurrency.entry;
    Scaleout.entry;
    spec "segsize"
      "Ablation: segment size vs small-write bandwidth (the seek\n\
       amortization argument of section 4.3)"
      ~quick:2_000 ~paper:8_000 segsize;
    spec "policy"
      "Ablation: cleaning policy under uniform vs hot/cold overwrites"
      ~quick:{ disk_mb = 24; ops = 4_000 }
      ~paper:{ disk_mb = 48; ops = 20_000 }
      policy;
    spec "util" "Ablation: disk utilization vs cleaning write cost"
      ~quick:{ disk_mb = 24; ops = 4_000 }
      ~paper:{ disk_mb = 48; ops = 15_000 }
      util;
    spec "checkpoint"
      "Ablation: checkpoint interval vs recovery cost and data loss" ~quick:16
      ~paper:32 checkpoint;
    spec "recovery"
      "Ablation: crash-recovery time - LFS checkpoint+roll-forward vs\n\
       FFS full-disk scan (fsck)"
      ~quick:[ 500; 2_000 ] ~paper:[ 1_000; 5_000; 20_000 ] recovery
      ~fields:
        [
          "files"; "lfs_checkpoint_us"; "lfs_rollforward_us";
          "segments_replayed"; "ffs_fsck_us"; "fsck_over_rollforward";
        ];
    spec "scaling"
      "Ablation: CPU scaling (the section 3.1 argument - a 10x faster\n\
       CPU speeds file creation by only ~20% on FFS; LFS scales)"
      ~quick:500 ~paper:2_000 scaling;
    spec "cache"
      "Ablation: file-cache size (section 2.2 - large caches absorb\n\
       reads, so disk traffic becomes write-dominated)"
      ~quick:3_000 ~paper:10_000 cache;
    spec "trace"
      "Trace replay: synthetic office/engineering workload (mixed\n\
       create/read/overwrite/delete, Zipf-skewed, short lifetimes)"
      ~quick:{ events = 4_000; target_live = 500 }
      ~paper:{ events = 20_000; target_live = 2_000 }
      trace;
  ]

let name (Spec s) = s.name
let title (Spec s) = s.title
let names (Spec s) = s.name :: s.aliases
let find n = List.find_opt (fun e -> List.mem n (names e)) all
let run ~quick (Spec s) = s.run (if quick then s.quick else s.paper)

(* ------------------------------------------------------------------ *)
(* lfs-bench/1 documents                                               *)
(* ------------------------------------------------------------------ *)

let schema = "lfs-bench/1"

let document ~quick figures =
  J.Obj
    [
      ("schema", J.String schema); ("quick", J.Bool quick);
      ("figures", J.Obj figures);
    ]

let check ?(claims = true) (Spec s) fig =
  match (s.checks, fig) with
  | None, _ -> Error (Printf.sprintf "experiment %S emits no figure" s.name)
  | Some _, J.List [] ->
      Error (Printf.sprintf "figure %S has no entries" s.name)
  | Some c, J.List entries -> (
      try
        List.iter
          (fun e ->
            List.iter (fun f -> ignore (num e f)) c.fields;
            c.entry e)
          entries;
        if claims then c.claims entries;
        Ok (List.length entries)
      with Reject msg -> Error msg)
  | Some _, _ -> Error (Printf.sprintf "figure %S is not a list" s.name)

let check_document doc =
  let ( let* ) = Result.bind in
  let* () =
    match J.member "schema" doc with
    | Some (J.String s) when s = schema -> Ok ()
    | Some (J.String s) ->
        Error (Printf.sprintf "schema %S, expected %S" s schema)
    | _ -> Error "missing \"schema\""
  in
  let* figures =
    match J.member "figures" doc with
    | Some (J.Obj []) -> Error "\"figures\" is empty"
    | Some (J.Obj kvs) -> Ok kvs
    | _ -> Error "missing \"figures\" object"
  in
  let checked (fig, _) =
    List.find_opt (fun (Spec s) -> s.name = fig && s.checks <> None) all
  in
  List.fold_right
    (fun ((fig, j) as f) acc ->
      match checked f with
      | None -> acc
      | Some e ->
          let* n = check e j in
          let* rest = acc in
          Ok ((fig, n) :: rest))
    figures (Ok [])
