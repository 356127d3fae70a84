(* Quickstart: create an LFS on a simulated disk, write and read files,
   and look at the storage manager's state.

   Run with:  dune exec examples/quickstart.exe *)

module Clock = Lfs_disk.Clock
module Cpu_model = Lfs_disk.Cpu_model
module Fs = Lfs_core.Fs
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io

let ok = function
  | Ok v -> v
  | Error e -> failwith (Lfs_vfs.Errors.to_string e)

let () =
  (* 1. A simulated 64 MB disk with the paper's WREN IV timing, a clock,
     and a CPU cost model: the "hardware". *)
  let geometry = Geometry.wren_iv ~size_bytes:(64 * 1024 * 1024) in
  let io = Io.of_geometry geometry (Clock.create ()) Cpu_model.sun4_260 in
  Format.printf "%a@." Geometry.pp geometry;

  (* 2. Format and mount an LFS with default (paper) parameters:
     4 KB blocks, 1 MB segments, greedy cleaning. *)
  (match Fs.format io Lfs_core.Config.default with
  | Ok () -> ()
  | Error e -> failwith e);
  let fs =
    match Fs.mount io with Ok fs -> fs | Error e -> failwith e
  in
  Format.printf "%a@." Lfs_core.Layout.pp (Fs.layout fs);

  (* 3. Ordinary file-system calls. *)
  ok (Fs.mkdir fs "/projects");
  ok (Fs.create fs "/projects/notes.txt");
  ok (Fs.write fs "/projects/notes.txt" ~off:0
        (Bytes.of_string "The log is the storage."));
  let data = ok (Fs.read fs "/projects/notes.txt" ~off:0 ~len:1024) in
  Printf.printf "read back: %S\n" (Bytes.to_string data);

  (* 4. Everything so far lives in the file cache: no disk write has
     happened yet.  sync pushes a segment out. *)
  let disk_writes = Lfs_obs.Metrics.counter (Io.metrics io) "disk.writes" in
  let writes () = Lfs_obs.Metrics.value disk_writes in
  Printf.printf "disk writes before sync: %d\n" (writes ());
  Fs.sync fs;
  Printf.printf "disk writes after sync:  %d (one segment write)\n" (writes ());

  (* 5. Simulated time has been charged for every operation. *)
  Printf.printf "simulated time elapsed: %.3f ms\n"
    (float_of_int (Io.now_us io) /. 1000.0);

  (* 6. A checkpoint makes the state instantly recoverable; unmount does
     one automatically. *)
  Fs.unmount fs;
  let fs2 = match Fs.mount io with Ok fs -> fs | Error e -> failwith e in
  Printf.printf "after remount: /projects contains %s\n"
    (String.concat ", " (ok (Fs.readdir fs2 "/projects")));
  Printf.printf "segments clean: %d of %d\n"
    (Fs.clean_segment_count fs2)
    (Fs.layout fs2).Lfs_core.Layout.nsegments
