(** The segment-cleaning benchmark of §5.3 (Figure 5).

    Fill an LFS disk with small files, delete a fraction so every segment
    is left at a target utilization, then measure the rate (KB/s of
    simulated time) at which the cleaner generates clean segments.  This
    is the paper's deliberate worst case: all segments equally
    fragmented. *)

type point = {
  utilization : float;  (** mean utilization of the cleaned segments *)
  clean_kb_per_sec : float;
      (** gross rate at which segments become clean (the figure's axis) *)
  net_kb_per_sec : float;
      (** new writable space per second: gross minus the live bytes the
          cleaner had to rewrite — "full segments yield almost no free
          space" *)
  segments_cleaned : int;
  write_cost : float;
      (** the file system's cumulative write cost (§3, Figure 5's y-axis
          companion) after the pass *)
}

(* Fill the log with [file_size]-byte files until roughly [fill_fraction]
   of the segments hold data, then delete each file with probability
   [1 - target_utilization]. *)
let run ?(file_size = 1024) ?(fill_fraction = 0.7) ?(seed = 23)
    ~target_utilization (fs : Lfs_core.Fs.t) =
  if target_utilization < 0.0 || target_utilization > 1.0 then
    invalid_arg "Cleaning.run: utilization must be in [0,1]";
  let inst = Lfs_vfs.Fs_intf.Instance ((module Lfs_core.Fs), fs) in
  Lfs_core.Fs.set_auto_clean fs false;
  let layout = Lfs_core.Fs.layout fs in
  let seg_payload =
    layout.Lfs_core.Layout.payload_blocks * layout.Lfs_core.Layout.block_size
  in
  let target_bytes =
    int_of_float
      (fill_fraction
      *. float_of_int (layout.Lfs_core.Layout.nsegments * seg_payload))
  in
  (* Each file's on-disk footprint: block-rounded data plus its inode
     slice (directory blocks add a little more; fill_fraction leaves
     headroom for them). *)
  let block_size = layout.Lfs_core.Layout.block_size in
  let footprint =
    ((file_size + block_size - 1) / block_size * block_size)
    + Lfs_core.Layout.inode_bytes
  in
  let nfiles = target_bytes / footprint in
  let files_per_dir = 1000 in
  for d = 0 to ((nfiles - 1) / files_per_dir) do
    Driver.mkdir inst (Printf.sprintf "/d%03d" d)
  done;
  for i = 0 to nfiles - 1 do
    let path = Printf.sprintf "/d%03d/f%06d" (i / files_per_dir) i in
    Driver.create inst path;
    Driver.write inst path ~off:0 (Driver.content ~seed:i file_size)
  done;
  Driver.sync inst;
  let rng = Lfs_util.Rng.create seed in
  for i = 0 to nfiles - 1 do
    if Lfs_util.Rng.float rng 1.0 >= target_utilization then
      Driver.delete inst (Printf.sprintf "/d%03d/f%06d" (i / files_per_dir) i)
  done;
  Driver.sync inst;
  (* The population to clean: every segment dirty right now.  Mean
     utilization of that population is the figure's x coordinate. *)
  let report = Lfs_core.Fs.segment_report fs in
  let victims, utils =
    List.fold_left
      (fun (vs, us) (seg, state, u) ->
        if state = Lfs_core.Seg_usage.Dirty then (seg :: vs, u :: us)
        else (vs, us))
      ([], []) report
  in
  let mean_util =
    if utils = [] then 0.0
    else List.fold_left ( +. ) 0.0 utils /. float_of_int (List.length utils)
  in
  let moved0 = Driver.counter inst "lfs.cleaner_bytes_moved" in
  let t0 = Driver.now_us inst in
  let freed = Lfs_core.Cleaner.clean_exact fs ~victims:(List.rev victims) in
  let elapsed_us = Driver.now_us inst - t0 in
  let moved = Driver.counter inst "lfs.cleaner_bytes_moved" - moved0 in
  let clean_bytes = freed * seg_payload in
  let rate bytes =
    if elapsed_us <= 0 then infinity
    else float_of_int bytes /. 1024.0 /. (float_of_int elapsed_us /. 1e6)
  in
  let result =
    {
      utilization = mean_util;
      clean_kb_per_sec = rate clean_bytes;
      net_kb_per_sec = rate (max 0 (clean_bytes - moved));
      segments_cleaned = freed;
      write_cost = Lfs_core.Cleaner.write_cost fs;
    }
  in
  Driver.sanitize inst;
  result

(** Sweep Figure 5's x-axis.  Each point gets a fresh file system. *)
let sweep ?file_size ?fill_fraction ?seed ~utilizations make_fs =
  List.map
    (fun u ->
      let fs = make_fs () in
      run ?file_size ?fill_fraction ?seed ~target_utilization:u fs)
    utilizations
