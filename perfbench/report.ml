(* From one iteration to named metrics: the end-to-end set every run
   reports, and the per-layer set of the traced run. *)

module Io = Lfs_disk.Io
module Vec = Stats.Vec

let units =
  [
    ("setup_s", "s");
    ("sim_ops_per_s", "1/s");
    ("sim_read_p50_us", "us");
    ("sim_read_p99_us", "us");
    ("sim_write_p50_us", "us");
    ("sim_write_p99_us", "us");
    ("write_amp", "ratio");
    ("recovery_ms", "ms");
    ("host_ops_per_s", "1/s");
    ("host_alloc_words_per_op", "words");
    ("host_peak_heap_mb", "MB");
  ]

let samples (p : Probe.t) op = p.Probe.samples.(Probe.op_index op)

(* Simulated end-to-end metrics: a pure function of the seed and the
   code, so every iteration of a run, traced or not, must agree. *)
let sim_e2e (it : Workloads.iteration) =
  let p = it.Workloads.probe in
  let reads = Vec.to_array p.Probe.e2e_read and wr = Vec.to_array p.Probe.e2e_write in
  let sector = (Io.geometry p.Probe.io).Lfs_disk.Geometry.sector_size in
  [
    ( "sim_ops_per_s",
      float_of_int (p.Probe.attempted - p.Probe.failed)
      /. (float_of_int p.Probe.sim_window_us /. 1e6) );
    ("sim_read_p50_us", float_of_int (Stats.percentile reads 0.50));
    ("sim_read_p99_us", float_of_int (Stats.percentile reads 0.99));
    ("sim_write_p50_us", float_of_int (Stats.percentile wr 0.50));
    ("sim_write_p99_us", float_of_int (Stats.percentile wr 0.99));
    ( "write_amp",
      Stats.ratio
        (float_of_int (Probe.counter p "disk.sectors_written" * sector))
        (float_of_int p.Probe.user_bytes) );
    ("recovery_ms", float_of_int it.Workloads.recovery.Probe.mount_sim_us /. 1000.0);
  ]

let host_e2e (it : Workloads.iteration) =
  let p = it.Workloads.probe in
  [
    ( "host_ops_per_s",
      float_of_int (p.Probe.attempted - p.Probe.failed) /. (p.Probe.host_ns /. 1e9) );
    ("host_alloc_words_per_op", p.Probe.words /. float_of_int p.Probe.attempted);
  ]

let sample_counts (it : Workloads.iteration) =
  let p = it.Workloads.probe in
  [
    ("ops", p.Probe.attempted);
    ("failed", p.Probe.failed);
    ("reads", Vec.length p.Probe.e2e_read);
    ("writes", Vec.length p.Probe.e2e_write);
  ]

(* {1 Per-layer metrics} *)

let mean_of v =
  let a = Vec.to_array v in
  Stats.ratio (float_of_int (Array.fold_left ( + ) 0 a)) (float_of_int (Array.length a))

(* Metrics whose value comes from the untraced iterations of a traced
   run: the host cost of calls the benchmark makes itself, which
   tracing would inflate. *)
let untraced_layer name =
  List.exists
    (fun suffix -> String.ends_with ~suffix name)
    [ ".host_us_mean"; ".alloc_words_mean"; "fs.mount.host_ms" ]
  || String.starts_with ~prefix:"gc." name
  || String.starts_with ~prefix:"bench." name

let layers (it : Workloads.iteration) =
  let p = it.Workloads.probe in
  let c name = float_of_int (Probe.counter p name) in
  let fs_ops =
    List.concat_map
      (fun (name, op) ->
        let s = samples p op in
        let sim = Vec.to_array s.Probe.sim_us in
        [
          (Printf.sprintf "fs.%s.count" name, float_of_int (Array.length sim));
          (Printf.sprintf "fs.%s.sim_p50_us" name, float_of_int (Stats.percentile sim 0.50));
          (Printf.sprintf "fs.%s.sim_p99_us" name, float_of_int (Stats.percentile sim 0.99));
          (Printf.sprintf "fs.%s.host_us_mean" name, mean_of s.Probe.host_ns /. 1000.0);
          (Printf.sprintf "fs.%s.alloc_words_mean" name, mean_of s.Probe.words);
        ])
      Probe.reported
  in
  let span name =
    match p.Probe.tracer with Some tr -> Tracer.span tr name | None -> Tracer.zero ()
  in
  let host_ms name = (span name).Tracer.self_ns /. 1e6 in
  let words name = (span name).Tracer.self_words in
  let sim_ms name = float_of_int (span name).Tracer.sim_us /. 1000.0 in
  let hits = c "cache.hits" and misses = c "cache.misses" in
  let cleaned_read = c "lfs.cleaner_bytes_read" in
  let busy = Array.map float_of_int p.Probe.busy_us in
  let members = float_of_int (Array.length busy) in
  let busy_total = Array.fold_left ( +. ) 0.0 busy in
  let requests = c "disk.reads" +. c "disk.writes" in
  let profile =
    List.concat_map
      (fun (name, _) ->
        let n, ca, di, cl, ck =
          match p.Probe.tracer with
          | Some tr -> Tracer.op_attribution tr name
          | None -> (0, 0, 0, 0, 0)
        in
        let per x = Stats.ratio (float_of_int x) (float_of_int n) in
        [
          (Printf.sprintf "profile.%s.cache_us" name, per ca);
          (Printf.sprintf "profile.%s.disk_us" name, per di);
          (Printf.sprintf "profile.%s.cleaner_us" name, per cl);
          (Printf.sprintf "profile.%s.checkpoint_us" name, per ck);
        ])
      Probe.reported
  in
  let io_spans =
    List.concat_map
      (fun s -> [ (s ^ ".host_self_ms", host_ms s); (s ^ ".alloc_words", words s) ])
      [ "io_read"; "io_write"; "io_write_async"; "io_drain" ]
  in
  fs_ops
  @ [
      ("cache.hits", hits);
      ("cache.misses", misses);
      ("cache.hit_ratio", Stats.ratio hits (hits +. misses));
      ("cache.evictions", c "cache.evictions");
      ("cache.writebacks", c "cache.writebacks");
      ("io.readahead.issued", c "io.readahead.issued");
      ("readahead.useful_ratio", Stats.ratio (c "io.readahead.hit") (c "io.readahead.issued"));
      ("lfs.segments_written", c "lfs.segments_written");
      ("lfs.partial_segments", c "lfs.partial_segments");
      ( "segwriter.partial_ratio",
        Stats.ratio (c "lfs.partial_segments") (c "lfs.segments_written") );
      ("lfs.blocks_logged", c "lfs.blocks_logged");
      ("lfs_log_flush.host_self_ms", host_ms "lfs_log_flush");
      ("lfs_log_flush.alloc_words", words "lfs_log_flush");
      ("lfs.cleaner_passes", c "lfs.cleaner_passes");
      ("lfs.segments_cleaned", c "lfs.segments_cleaned");
      ("lfs.cleaner_bytes_read", cleaned_read);
      ("lfs.cleaner_bytes_moved", c "lfs.cleaner_bytes_moved");
      ( "cleaner.yield_ratio",
        if cleaned_read = 0.0 then 0.0
        else 1.0 -. (c "lfs.cleaner_bytes_moved" /. cleaned_read) );
      ("cleaner.write_cost", it.Workloads.write_cost);
      ("cleaner_pass.host_self_ms", host_ms "cleaner_pass");
      ("cleaner_pass.alloc_words", words "cleaner_pass");
      ("cleaner_pass.sim_ms", sim_ms "cleaner_pass");
      ("lfs.checkpoints", c "lfs.checkpoints");
      ("checkpoint.host_self_ms", host_ms "checkpoint");
      ("checkpoint.sim_ms", sim_ms "checkpoint");
      ("lfs.rollforward_segments", float_of_int it.Workloads.recovery.Probe.rolled);
      ("roll_forward.host_self_ms", host_ms "roll_forward");
      ("roll_forward.sim_ms", sim_ms "roll_forward");
      ("fs.mount.host_ms", it.Workloads.recovery.Probe.mount_host_ns /. 1e6);
      ( "recovery.clean_segments_lost",
        float_of_int
          (it.Workloads.recovery.Probe.clean_before
          - it.Workloads.recovery.Probe.clean_after) );
    ]
  @ io_spans
  @ [
      ("io.queue.depth", Probe.hist_mean p "io.queue.depth");
      ("io.queue.wait_us", Probe.hist_mean p "io.queue.wait_us");
      ("io.retries", c "io.retries");
      ( "volume.busy_imbalance",
        Stats.ratio (Array.fold_left max 0.0 busy) (busy_total /. members) );
      ("disk.reads", c "disk.reads");
      ("disk.writes", c "disk.writes");
      ("disk.seeks", c "disk.seeks");
      ( "disk.utilization",
        Stats.ratio busy_total (members *. float_of_int p.Probe.sim_window_us) );
      ("disk.positioning_share", Stats.ratio (c "disk.positioning_us") (c "disk.busy_us"));
      ( "disk.mean_request_sectors",
        Stats.ratio (c "disk.sectors_read" +. c "disk.sectors_written") requests );
    ]
  @ profile
  @ [
      ("gc.minor_collections", float_of_int p.Probe.gc_minor);
      ("gc.major_collections", float_of_int p.Probe.gc_major);
      ("bench.input_gen_host_ms", it.Workloads.input_gen_ns /. 1e6);
    ]

(* The unit of a per-layer metric, from its name's suffix. *)
let layer_unit name =
  let ends suffix = String.ends_with ~suffix name in
  if ends "_us" || ends "_us_mean" then "us"
  else if ends "_ms" then "ms"
  else if ends "words" || ends "words_mean" then "words"
  else if ends "depth" then "requests"
  else if ends "ratio" || ends "share" || ends "utilization" || ends "imbalance"
          || ends "write_cost"
  then "ratio"
  else if ends "sectors" then "sectors"
  else if String.starts_with ~prefix:"lfs.cleaner_bytes" name then "bytes"
  else "count"

