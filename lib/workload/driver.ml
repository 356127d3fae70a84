(** Driving any file system through {!Lfs_vfs.Fs_intf.instance}.

    The benchmark workloads are written once against these helpers and
    run unchanged on LFS and FFS.  All helpers fail loudly — a benchmark
    that cannot perform its operations is a bug, not a result. *)

module Fs_intf = Lfs_vfs.Fs_intf
module Errors = Lfs_vfs.Errors

exception Benchmark_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Benchmark_failure s)) fmt

let ok what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Errors.to_string e)

let io (Fs_intf.Instance ((module F), fs)) = F.io fs
let label (Fs_intf.Instance ((module F), _)) = F.name

let create (Fs_intf.Instance ((module F), fs)) path =
  ok ("create " ^ path) (F.create fs path)

let mkdir (Fs_intf.Instance ((module F), fs)) path =
  ok ("mkdir " ^ path) (F.mkdir fs path)

let delete (Fs_intf.Instance ((module F), fs)) path =
  ok ("delete " ^ path) (F.delete fs path)

let write (Fs_intf.Instance ((module F), fs)) path ~off data =
  ok ("write " ^ path) (F.write fs path ~off data)

let read (Fs_intf.Instance ((module F), fs)) path ~off ~len =
  ok ("read " ^ path) (F.read fs path ~off ~len)

let stat (Fs_intf.Instance ((module F), fs)) path =
  ok ("stat " ^ path) (F.stat fs path)

let readdir (Fs_intf.Instance ((module F), fs)) path =
  ok ("readdir " ^ path) (F.readdir fs path)

let exists (Fs_intf.Instance ((module F), fs)) path = F.exists fs path

(* [sync] and [flush_caches] return unit, yet a full device can still
   surface from them as a raised [Errors.Error]. *)
let sync (Fs_intf.Instance ((module F), fs)) =
  try F.sync fs with Errors.Error e -> fail "sync: %s" (Errors.to_string e)

let flush_caches (Fs_intf.Instance ((module F), fs)) =
  try F.flush_caches fs
  with Errors.Error e -> fail "flush caches: %s" (Errors.to_string e)

let integrity (Fs_intf.Instance ((module F), fs)) = F.integrity fs

let sanitize inst =
  sync inst;
  match integrity inst with
  | [] -> ()
  | issues ->
      fail "%s: post-run integrity check failed:\n  %s" (label inst)
        (String.concat "\n  " issues)

let now_us inst = Lfs_disk.Io.now_us (io inst)
let metrics inst = Lfs_disk.Io.metrics (io inst)
let bus inst = Lfs_disk.Io.bus (io inst)

let counter inst name =
  Option.value ~default:0
    (Lfs_obs.Metrics.counter_value (Lfs_obs.Metrics.snapshot (metrics inst))
       name)

(** Simulated time consumed by [f], in microseconds. *)
let timed inst f =
  let t0 = now_us inst in
  f ();
  now_us inst - t0

(** Run [f] and return its simulated duration together with the registry
    delta it caused — the per-phase metric table of a report. *)
let observed inst f =
  let m = metrics inst in
  let before = Lfs_obs.Metrics.snapshot m in
  let t0 = now_us inst in
  f ();
  let elapsed = now_us inst - t0 in
  (elapsed, Lfs_obs.Metrics.diff ~before ~after:(Lfs_obs.Metrics.snapshot m))

(** Deterministic file contents. *)
let content ~seed len =
  Lfs_util.Rng.bytes (Lfs_util.Rng.create seed) len
