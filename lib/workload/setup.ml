(** Benchmark environments: a simulated WREN IV disk, a Sun-4/260 CPU
    model, and a freshly formatted file system — the §5 test setup. *)

module Clock = Lfs_disk.Clock
module Cpu_model = Lfs_disk.Cpu_model
module Fs_intf = Lfs_vfs.Fs_intf
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io

let default_disk_mb = 300

let make_io ?(disk_mb = default_disk_mb) ?(cpu = Cpu_model.sun4_260) ?volume
    () =
  let geometry = Geometry.wren_iv ~size_bytes:(disk_mb * 1024 * 1024) in
  match volume with
  | None -> Io.of_geometry geometry (Clock.create ()) cpu
  | Some (policy, members) ->
      Io.of_volume
        (Lfs_disk.Volume.create policy ~members geometry)
        (Clock.create ()) cpu

let make_volume_io ?disk_mb ?cpu ~policy ~members () =
  make_io ?disk_mb ?cpu ~volume:(policy, members) ()

let lfs_on io ?(config = Lfs_core.Config.default) () =
  (match Lfs_core.Fs.format io config with
  | Ok () -> ()
  | Error e -> Driver.fail "LFS format: %s" e);
  match Lfs_core.Fs.mount ~config io with
  | Ok fs -> Fs_intf.Instance ((module Lfs_core.Fs), fs)
  | Error e -> Driver.fail "LFS mount: %s" e

let ffs_on io ?(config = Lfs_ffs.Config.default) () =
  (match Lfs_ffs.Fs.format io config with
  | Ok () -> ()
  | Error e -> Driver.fail "FFS format: %s" e);
  match Lfs_ffs.Fs.mount ~config io with
  | Ok fs -> Fs_intf.Instance ((module Lfs_ffs.Fs), fs)
  | Error e -> Driver.fail "FFS mount: %s" e

let lfs ?disk_mb ?cpu ?config () =
  lfs_on (make_io ?disk_mb ?cpu ()) ?config ()

let ffs ?disk_mb ?cpu ?config () =
  ffs_on (make_io ?disk_mb ?cpu ()) ?config ()

(** Both systems on identical hardware, LFS first — the comparison pair
    of every figure in §5. *)
let both ?disk_mb ?cpu () = [ lfs ?disk_mb ?cpu (); ffs ?disk_mb ?cpu () ]
