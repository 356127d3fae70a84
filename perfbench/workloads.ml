(* The three workloads.  Each call runs one iteration on fresh simulated
   hardware: set up (allocate the media, format, mount, prefill), run
   the measured phases through a Probe, then check the outputs and crash
   and remount.  Inputs come from the seed alone. *)

module Fs = Lfs_core.Fs
module Config = Lfs_core.Config
module Io = Lfs_disk.Io
module W = Lfs_workload
module Rng = Lfs_util.Rng
module Zipf = Lfs_util.Zipf

type size = {
  files : int;  (** small-files: files; steady-overwrite: overwrites;
                    mixed-clients: operations per client *)
  disk_mb : int;  (** per member *)
}

type workload = Small_files | Steady_overwrite | Mixed_clients

let all = [ Small_files; Steady_overwrite; Mixed_clients ]

let name = function
  | Small_files -> "small-files"
  | Steady_overwrite -> "steady-overwrite"
  | Mixed_clients -> "mixed-clients"

let of_name s = List.find_opt (fun w -> name w = s) all

(* The measured sizes, and the short ones the intent tests use. *)
let full = function
  | Small_files -> { files = 10_000; disk_mb = 80 }
  | Steady_overwrite -> { files = 3_000; disk_mb = 48 }
  | Mixed_clients -> { files = 2_000; disk_mb = 32 }

let short = function
  | Small_files -> { files = 5_000; disk_mb = 48 }
  | Steady_overwrite -> { files = 2_000; disk_mb = 48 }
  | Mixed_clients -> { files = 300; disk_mb = 32 }

let files_per_dir = 100
(* Small-file sizes: log-normal with a 1 KB mean (median 860 B, sigma
   0.55), so a few files span two blocks and the log layout, not just
   the payload, depends on the seed. *)
let small_file_median = 860.0
let small_file_sigma = 0.55

let small_file_size rng =
  let u1 = max 1e-12 (Rng.float rng 1.0) and u2 = Rng.float rng 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  max 64 (min 16_384 (int_of_float (small_file_median *. exp (small_file_sigma *. z))))
(* Steady-overwrite files: one 4 KB block each, holding 3-4 KB. *)
let overwrite_block = 4096
let overwrite_min_bytes = 3072
let fill_fraction = 0.75
let sync_every = 250

(* steady-overwrite checkpoints 125-174 overwrites (drawn from the
   seed) before its crash, so roll-forward replays about the same amount
   of log on every seed; the 30 s checkpoint timer alone would leave
   anywhere from 0 to 30 s of it. *)
let crash_tail_min = 125
let crash_tail_span = 50

(* steady-overwrite's access sequence (which file each overwrite hits)
   is part of the workload's definition, the same on every seed; the
   seed draws the file sizes and payloads.  Cleaning work then depends
   on the code, not on which files a seed happens to make hot, and the
   spread across seeds stays well inside the benchmark's bounds. *)
let access_seed = 42
let zipf_theta = 0.9
let members = 4
let clients = 8

type iteration = {
  probe : Probe.t;
  setup_s : float;
  recovery : Probe.recovery;
  write_cost : float;
  input_gen_ns : float;
  read_phase_hit_ratio : float;  (** small-files only; nan elsewhere *)
  record : (string * string) list;  (** the workload's parameters *)
}

(* Payload of [version] of [file]: deterministic bytes from the seed. *)
let payload ~seed ~file ~version len =
  let rng =
    Rng.create ((seed * 1_000_003) + (file * 7_919) + (version * 104_729) + 1)
  in
  let b = Bytes.create len in
  let i = ref 0 in
  while !i + 8 <= len do
    Bytes.set_int64_le b !i (Rng.next_int64 rng);
    i := !i + 8
  done;
  while !i < len do
    Bytes.set b !i (Char.chr (Int64.to_int (Rng.next_int64 rng) land 0xff));
    incr i
  done;
  b

let dir_of i = Printf.sprintf "/d%03d" (i / files_per_dir)
let path_of i = Printf.sprintf "/d%03d/f%05d" (i / files_per_dir) i

let ok what = function
  | Ok v -> v
  | Error e -> W.Driver.fail "%s: %s" what e

(* Set-up calls must succeed; measured calls that fail are only counted. *)
let must what r = ok what (Result.map_error Lfs_vfs.Errors.to_string r)

let mount_fresh io config =
  ok "format" (Fs.format io config);
  ok "mount" (Fs.mount ~config io)

(* Input generation is timed on its own and kept out of the probe's
   numbers: it runs between the timed calls. *)
type gen = { mutable ns : float }

let generate gen f =
  let t0 = Host.now_ns () in
  let r = f () in
  gen.ns <- gen.ns +. (Host.now_ns () -. t0);
  r

let attach_tracer p traced =
  if traced then p.Probe.tracer <- Some (Tracer.attach (Io.bus p.Probe.io))

let cache_counts io =
  let s = Io.metrics io |> Lfs_obs.Metrics.snapshot in
  let c name = Option.value ~default:0 (Lfs_obs.Metrics.counter_value s name) in
  (c "cache.hits", c "cache.misses")

(* small-files set-up: a fresh disk and the directories. *)
let small_files_setup size =
  let config = Config.default in
  let t0 = Host.now_ns () in
  let io = W.Setup.make_io ~disk_mb:size.disk_mb () in
  let p = Probe.create ~config (mount_fresh io config) in
  let ndirs = (size.files + files_per_dir - 1) / files_per_dir in
  for d = 0 to ndirs - 1 do
    must "mkdir" (Probe.M.mkdir p (dir_of (d * files_per_dir)))
  done;
  Probe.M.sync p;
  (p, config, ndirs, (Host.now_ns () -. t0) /. 1e9)

(* §5.1: create, read back cold, delete — then crash and remount. *)
let small_files ~seed ~traced size =
  let gen = { ns = 0.0 } in
  let p, config, ndirs, setup_s = small_files_setup size in
  let io = p.Probe.io in
  let n = size.files in
  let dir d = dir_of (d * files_per_dir) in
  attach_tracer p traced;
  let rng = Rng.create seed in
  let sizes = Array.init n (fun _ -> small_file_size rng) in
  Probe.phase p (fun () ->
      for i = 0 to n - 1 do
        let path = path_of i in
        let data = generate gen (fun () -> payload ~seed ~file:i ~version:0 sizes.(i)) in
        (* §5.1 counts files: creating a 1 KB file is one operation. *)
        Probe.as_one_write p (fun () ->
            ignore (Probe.M.create p path : (unit, _) result);
            ignore (Probe.M.write p path ~off:0 data : (unit, _) result))
      done;
      Probe.M.sync p);
  Probe.M.flush_caches p;
  let h0, m0 = cache_counts io in
  Probe.phase p (fun () ->
      for i = 0 to n - 1 do
        ignore (Probe.M.read p (path_of i) ~off:0 ~len:sizes.(i))
      done);
  let h1, m1 = cache_counts io in
  Probe.phase p (fun () ->
      for i = 0 to n - 1 do
        ignore (Probe.M.delete p (path_of i) : (unit, _) result)
      done;
      Probe.M.sync p);
  Probe.check_integrity p;
  let write_cost = Fs.write_cost p.Probe.fs in
  let recovery = Probe.crash_and_remount p in
  Probe.verify_all p;
  for d = 0 to ndirs - 1 do
    match Fs.readdir p.Probe.fs (dir d) with
    | Ok [] -> ()
    | Ok names ->
        Probe.problem p "%s: %d deleted files came back" (dir d) (List.length names)
    | Error e -> Probe.problem p "readdir: %s" (Lfs_vfs.Errors.to_string e)
  done;
  Probe.check_integrity p;
  {
    probe = p;
    setup_s;
    recovery;
    write_cost;
    input_gen_ns = gen.ns;
    read_phase_hit_ratio =
      Stats.ratio (float_of_int (h1 - h0)) (float_of_int (h1 - h0 + m1 - m0));
    record =
      [
        ("files", string_of_int n);
        ("file_bytes", Printf.sprintf "log-normal, median %.0f, sigma %.2f, mean %d"
                         small_file_median small_file_sigma
                         (Array.fold_left ( + ) 0 sizes / max 1 n));
        ("files_per_dir", string_of_int files_per_dir);
        ("disk_mb", string_of_int size.disk_mb);
        ("cache_blocks", string_of_int config.Config.cache_blocks);
      ];
  }

let steady_config =
  { Config.default with Config.policy = Config.Cost_benefit; auto_clean = true }

type steady = {
  sp : Probe.t;
  n : int;
  sizes : int array;
  rng : Rng.t;  (** the seed's draws, after the sizes *)
  sgen : gen;
  ssetup_s : float;
}

(* steady-overwrite set-up: a fresh disk filled to 75 %.  Building the
   payloads is not part of set-up. *)
let steady_setup ~seed size =
  let gen = { ns = 0.0 } in
  let config = steady_config in
  let t0 = Host.now_ns () in
  let io = W.Setup.make_io ~disk_mb:size.disk_mb () in
  let p = Probe.create ~config (mount_fresh io config) in
  let capacity = (Fs.space p.Probe.fs).Fs.capacity_bytes in
  let n = int_of_float (fill_fraction *. float_of_int capacity) / overwrite_block in
  let rng = Rng.create seed in
  let sizes =
    Array.init n (fun _ ->
        overwrite_min_bytes + Rng.int rng (overwrite_block - overwrite_min_bytes + 1))
  in
  for i = 0 to n - 1 do
    if i mod files_per_dir = 0 then must "mkdir" (Probe.M.mkdir p (dir_of i));
    must "prefill" (Probe.M.create p (path_of i));
    let data = generate gen (fun () -> payload ~seed ~file:i ~version:0 sizes.(i)) in
    must "prefill" (Probe.M.write p (path_of i) ~off:0 data)
  done;
  Probe.M.sync p;
  let setup_s = (Host.now_ns () -. t0 -. gen.ns) /. 1e9 in
  { sp = p; n; sizes; rng; sgen = gen; ssetup_s = setup_s }

(* §3 / Figure 5 under load: fill to 75 %, Zipf overwrites with the
   cost-benefit cleaner and a burst of Zipf reads after each sync, then
   crash, remount and read everything back. *)
let steady_overwrite ~seed ~traced size =
  let { sp = p; n; sizes; rng; sgen = gen; ssetup_s = setup_s } = steady_setup ~seed size in
  let config = steady_config in
  attach_tracer p traced;
  let crash_tail = crash_tail_min + Rng.int rng crash_tail_span in
  let zipf = Zipf.create ~n ~theta:zipf_theta in
  let access = Rng.create access_seed in
  let rank_to_file = Array.init n Fun.id in
  Rng.shuffle access rank_to_file;
  let reads = Rng.create (access_seed + 1) in
  let zipf_file rng = rank_to_file.(min (n - 1) (Zipf.sample zipf rng)) in
  let versions = Array.make n 0 in
  Probe.phase p (fun () ->
      for k = 1 to size.files do
        let f = zipf_file access in
        versions.(f) <- versions.(f) + 1;
        let data =
          generate gen (fun () -> payload ~seed ~file:f ~version:versions.(f) sizes.(f))
        in
        ignore (Probe.M.write p (path_of f) ~off:0 data : (unit, _) result);
        if k mod sync_every = 0 then Probe.M.sync p;
        (* A burst of reads after each sync but the last. *)
        if k mod sync_every = 0 && k < size.files then
          for _ = 1 to sync_every do
            let r = zipf_file reads in
            ignore (Probe.M.read p (path_of r) ~off:0 ~len:sizes.(r))
          done;
        if k = size.files - crash_tail then Probe.checkpoint p
      done;
      Probe.M.sync p);
  Probe.check_integrity p;
  let write_cost = Fs.write_cost p.Probe.fs in
  let recovery = Probe.crash_and_remount p in
  (* Every synced byte must survive: read every file back and check it
     against the shadow. *)
  Probe.verify_all p;
  Probe.check_integrity p;
  {
    probe = p;
    setup_s;
    recovery;
    write_cost;
    input_gen_ns = gen.ns;
    read_phase_hit_ratio = nan;
    record =
      [
        ("files", string_of_int n);
        ("file_bytes", Printf.sprintf "%d-%d" overwrite_min_bytes overwrite_block);
        ("overwrites", string_of_int size.files);
        ("checkpoint_before_crash", Printf.sprintf "%d overwrites" crash_tail);
        ("fill", Printf.sprintf "%.2f" fill_fraction);
        ("policy", Config.policy_name config.Config.policy);
        ("disk_mb", string_of_int size.disk_mb);
        ("cache_blocks", string_of_int config.Config.cache_blocks);
      ];
  }

(* Engine: eight closed-loop clients over a striped four-disk volume
   under C-SCAN, with a working set that fits the cache. *)
let mixed_clients ~seed ~traced size =
  let base = Config.default in
  let stripe = base.Config.segment_size / 512 in
  let config = { base with Config.segment_align_sectors = stripe } in
  let t0 = Host.now_ns () in
  let io =
    W.Setup.make_volume_io ~disk_mb:size.disk_mb
      ~policy:(Lfs_disk.Volume.Log_stripe { stripe_sectors = stripe })
      ~members ()
  in
  let p = Probe.create ~config (mount_fresh io config) in
  p.Probe.engine_window <- true;
  attach_tracer p traced;
  let engine =
    {
      W.Engine.default with
      W.Engine.clients;
      ops_per_client = size.files;
      think = W.Engine.Uniform (1_000, 20_000);
      seed;
      working_set = 600;
      zipf_theta;
      discipline = Some Lfs_disk.Sched.Cscan;
    }
  in
  let result = W.Engine.run ~config:engine (Probe.instance p) in
  Probe.close_window p;
  (* Crash right after a checkpoint: recovery_ms is the volume's mount
     cost, not a seed-dependent stretch of roll-forward. *)
  Probe.checkpoint p;
  (* Engine makes its payloads between our timed calls; everything the
     window spent outside them (that, the event loop and the probe's
     own bookkeeping) is reported as input generation, an upper bound. *)
  let input_gen_ns = p.Probe.wall_ns -. p.Probe.host_ns in
  let setup_s = (p.Probe.first_open_ns -. t0) /. 1e9 in
  let write_cost = Fs.write_cost p.Probe.fs in
  let recovery = Probe.crash_and_remount p in
  Probe.verify_all p;
  Probe.check_integrity p;
  {
    probe = p;
    setup_s;
    recovery;
    write_cost;
    input_gen_ns;
    read_phase_hit_ratio = nan;
    record =
      [
        ("clients", string_of_int clients);
        ("ops_per_client", string_of_int size.files);
        ("working_set", string_of_int engine.W.Engine.working_set);
        ("file_bytes", "512-65536 (Engine mix)");
        ("members", string_of_int members);
        ("volume_mb", string_of_int (members * size.disk_mb));
        ("discipline", "cscan");
        ("cache_blocks", string_of_int config.Config.cache_blocks);
        ("engine_ops", string_of_int result.W.Engine.total_ops);
        ("engine_p99_us", string_of_int result.W.Engine.p99_us);
      ];
  }

let run w ~seed ~traced size =
  match w with
  | Small_files -> small_files ~seed ~traced size
  | Steady_overwrite -> steady_overwrite ~seed ~traced size
  | Mixed_clients -> mixed_clients ~seed ~traced size

(* One more set-up of [w], timed and thrown away, so that a run takes
   setup_s as a median over more set-ups than it has iterations.
   Engine runs its own set-up, so on mixed-clients this is a whole
   iteration of one operation per client. *)
let setup_again w ~seed size =
  match w with
  | Small_files ->
      let _, _, _, setup_s = small_files_setup size in
      setup_s
  | Steady_overwrite -> (steady_setup ~seed size).ssetup_s
  | Mixed_clients ->
      let it = mixed_clients ~seed ~traced:false { size with files = 1 } in
      if it.probe.Probe.nproblems > 0 then
        W.Driver.fail "extra set-up: %s" (String.concat "; " it.probe.Probe.problems);
      it.setup_s

(* Extra set-ups per iteration: about one second of set-up work. *)
let setup_repeats = function
  | Small_files -> 12
  | Steady_overwrite -> 1
  | Mixed_clients -> 4

(* Seeds 1-10 tune the workloads; claims are confirmed on this one. *)
let held_out_seed = 1_000_003
