(** Hot/cold overwrite traffic for the cleaning-policy ablations.

    Fills the disk to a target utilization with fixed-size files, then
    overwrites files drawn from a Zipf distribution ([theta = 0] gives the
    uniform traffic of Figure 5's worst case; [theta ~ 1] gives the
    office/engineering locality the paper expects in practice).  Reports
    the cleaner's write-cost multiplier and sustained write bandwidth. *)

type result = {
  policy : Lfs_core.Config.policy;
  theta : float;
  disk_utilization : float;
  write_cost : float;
  write_kbs : float;
  segments_cleaned : int;
}

let run ?(file_size = 4096) ?(theta = 0.0) ?(ops = 20_000) ?(seed = 31)
    ~disk_utilization ~policy (fs : Lfs_core.Fs.t) =
  let inst = Lfs_vfs.Fs_intf.Instance ((module Lfs_core.Fs), fs) in
  Lfs_core.Fs.set_policy fs policy;
  Lfs_core.Fs.set_auto_clean fs true;
  let layout = Lfs_core.Fs.layout fs in
  let seg_payload =
    layout.Lfs_core.Layout.payload_blocks * layout.Lfs_core.Layout.block_size
  in
  let layout_meta_bytes =
    (layout.Lfs_core.Layout.n_imap_blocks + layout.Lfs_core.Layout.n_usage_blocks + 8)
    * layout.Lfs_core.Layout.block_size
  in
  (* Honest capacity: fixed metadata, the in-flight write buffer between
     periodic syncs, and ~5% partial-segment slack all occupy log space
     on top of the files themselves. *)
  let backlog_allowance = 256 * file_size in
  let capacity =
    int_of_float
      (0.95
      *. float_of_int
           ((layout.Lfs_core.Layout.nsegments * seg_payload)
           - layout_meta_bytes - backlog_allowance))
  in
  let block_size = layout.Lfs_core.Layout.block_size in
  let footprint =
    ((file_size + block_size - 1) / block_size * block_size)
    + Lfs_core.Layout.inode_bytes
  in
  let nfiles =
    int_of_float (disk_utilization *. float_of_int capacity) / footprint
  in
  let files_per_dir = 1000 in
  let path i = Printf.sprintf "/d%03d/f%06d" (i / files_per_dir) i in
  for d = 0 to (nfiles - 1) / files_per_dir do
    Driver.mkdir inst (Printf.sprintf "/d%03d" d)
  done;
  for i = 0 to nfiles - 1 do
    Driver.create inst (path i);
    Driver.write inst (path i) ~off:0 (Driver.content ~seed:i file_size);
    (* Keep the write-buffer backlog bounded so the log fills gradually
       and cleaning interleaves as it would in steady state. *)
    if i mod 500 = 499 then Driver.sync inst
  done;
  Driver.sync inst;
  (* Steady-state overwrite traffic. *)
  let rng = Lfs_util.Rng.create seed in
  let zipf = Lfs_util.Zipf.create ~n:nfiles ~theta in
  let base_cleaned = Driver.counter inst "lfs.segments_cleaned" in
  let elapsed =
    Driver.timed inst (fun () ->
        for op = 0 to ops - 1 do
          let i = Lfs_util.Zipf.sample zipf rng in
          Driver.write inst (path i) ~off:0
            (Driver.content ~seed:(op lxor i) file_size);
          if op mod 250 = 249 then Driver.sync inst
        done;
        Driver.sync inst)
  in
  let result =
    {
      policy;
      theta;
      disk_utilization;
      write_cost = Lfs_core.Fs.write_cost fs;
      write_kbs =
        (if elapsed <= 0 then infinity
         else
           float_of_int (ops * file_size) /. 1024.0
           /. (float_of_int elapsed /. 1e6));
      segments_cleaned =
        Driver.counter inst "lfs.segments_cleaned" - base_cleaned;
    }
  in
  Driver.sanitize inst;
  result
