(* The multi-disk volume layer: the logical->member address map
   (round-trip and boundary-crossing splits, property-tested on the pure
   [Volume.Map]), the 1-member-volume = plain-disk equivalence that pins
   the [Io] timing path, deterministic snapshot/restore on multi-member
   stacks, the aggregate device counters, the mirror degraded-read
   failover, and the in-place read path on every volume shape. *)

module Clock = Lfs_disk.Clock
module Cpu_model = Lfs_disk.Cpu_model
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io
module Metrics = Lfs_obs.Metrics
module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Volume = Lfs_disk.Volume
module Driver = Lfs_workload.Driver
module Scenario = Lfs_scenario.Scenario
module Setup = Lfs_workload.Setup

let qcheck = QCheck_alcotest.to_alcotest
let geo () = Geometry.wren_iv ~size_bytes:(16 * 1024 * 1024)

let cval io name = Metrics.value (Metrics.counter (Io.metrics io) name)

(* ------------------------------------------------------------------ *)
(* Address-map properties                                              *)
(* ------------------------------------------------------------------ *)

(* A policy/member-count pair plus a logical range inside the volume's
   capacity; chunk sizes deliberately include awkward primes. *)
let map_case_gen =
  QCheck.Gen.(
    let* members = int_range 1 8 in
    let* policy =
      oneof
        [
          (let* chunk = oneofl [ 1; 3; 7; 16; 42; 128 ] in
           return (Volume.Stripe { chunk_sectors = chunk }));
          (let* per_member = oneofl [ 1; 4; 32; 256 ] in
           return
             (Volume.Log_stripe { stripe_sectors = per_member * members }));
        ]
    in
    let map = Volume.Map.create policy ~members (geo ()) in
    let cap = (Volume.Map.geometry map).Geometry.sectors in
    let* sector = int_bound (cap - 1) in
    let* count = int_range 1 (min 4096 (cap - sector)) in
    return (policy, members, sector, count))

let map_case_print (policy, members, sector, count) =
  Printf.sprintf "%s members=%d sector=%d count=%d"
    (Volume.policy_name policy)
    members sector count

let locate_roundtrip =
  QCheck.Test.make ~name:"locate/logical_of round-trip" ~count:300
    (QCheck.make ~print:map_case_print map_case_gen)
    (fun (policy, members, sector, _) ->
      let map = Volume.Map.create policy ~members (geo ()) in
      let member, msec = Volume.Map.locate map ~sector in
      if member < 0 || member >= members then
        QCheck.Test.fail_reportf "member %d out of range" member;
      if msec < 0 || msec >= (geo ()).Geometry.sectors then
        QCheck.Test.fail_reportf "member sector %d out of range" msec;
      Volume.Map.logical_of map ~member ~msec = sector)

(* Boundary-crossing requests split correctly: per-member runs are
   contiguous member ranges, their scatter/gather pieces tile the
   logical range exactly once, and every piece agrees with [locate]. *)
let split_covers =
  QCheck.Test.make ~name:"map_write splits tile the request" ~count:300
    (QCheck.make ~print:map_case_print map_case_gen)
    (fun (policy, members, sector, count) ->
      let map = Volume.Map.create policy ~members (geo ()) in
      let runs = Volume.Map.map_write map ~sector ~count in
      let covered = Array.make count false in
      List.iter
        (fun (r : Volume.run) ->
          if r.Volume.member < 0 || r.Volume.member >= members then
            QCheck.Test.fail_reportf "run on member %d" r.Volume.member;
          let piece_total =
            List.fold_left (fun a (_, l) -> a + l) 0 r.Volume.pieces
          in
          if piece_total <> r.Volume.count then
            QCheck.Test.fail_reportf "pieces sum %d <> run count %d"
              piece_total r.Volume.count;
          (* Pieces appear in member-sector order: piece [k] starts at
             [r.sector + sum of earlier piece lengths] on the member. *)
          let consumed = ref 0 in
          List.iter
            (fun (off, len) ->
              for j = 0 to len - 1 do
                if covered.(off + j) then
                  QCheck.Test.fail_reportf "logical offset %d covered twice"
                    (off + j);
                covered.(off + j) <- true;
                let m, msec =
                  Volume.Map.locate map ~sector:(sector + off + j)
                in
                if
                  m <> r.Volume.member
                  || msec <> r.Volume.sector + !consumed + j
                then
                  QCheck.Test.fail_reportf
                    "piece (%d,%d)+%d maps to (%d,%d), locate says (%d,%d)"
                    off len j r.Volume.member
                    (r.Volume.sector + !consumed + j)
                    m msec
              done;
              consumed := !consumed + len)
            r.Volume.pieces)
        runs;
      Array.for_all Fun.id covered)

(* Mirrors: writes fan out whole-range to every member, reads pick one. *)
let test_mirror_map () =
  let map = Volume.Map.create Volume.Mirror ~members:3 (geo ()) in
  let runs = Volume.Map.map_write map ~sector:100 ~count:10 in
  Alcotest.(check int) "one run per member" 3 (List.length runs);
  List.iter
    (fun (r : Volume.run) ->
      Alcotest.(check int) "full range" 10 r.Volume.count;
      Alcotest.(check int) "at the logical sector" 100 r.Volume.sector)
    runs;
  match Volume.Map.map_read ~prefer:2 map ~sector:100 ~count:10 with
  | [ r ] -> Alcotest.(check int) "read on preferred member" 2 r.Volume.member
  | l -> Alcotest.failf "mirror read split into %d runs" (List.length l)

(* ------------------------------------------------------------------ *)
(* 1-member volume = plain disk                                        *)
(* ------------------------------------------------------------------ *)

(* The same LFS workload on a plain disk (the identity-mapped one-member
   volume) and on a 1-member striped volume with an awkward chunk must
   end with byte-identical media and an identical clock.  Neither stack
   registers per-member [disk.0.*] counters or publishes [Volume_op]
   events: a one-member volume looks exactly like a single disk. *)
let test_single_member_lockstep () =
  let workload io =
    let volume_ops =
      Bus.attach
        ~filter:(function Event.Volume_op _ -> true | _ -> false)
        (Io.bus io)
    in
    let inst = Setup.lfs_on io ~config:Lfs_core.Config.small () in
    for i = 0 to 39 do
      let path = Printf.sprintf "/f%02d" i in
      Driver.create inst path;
      Driver.write inst path ~off:0 (Driver.content ~seed:i 3000);
      if i mod 8 = 7 then Driver.sync inst
    done;
    Driver.delete inst "/f03";
    Driver.sync inst;
    Driver.sanitize inst;
    Alcotest.(check int) "no volume_op events" 0
      (List.length (Bus.records volume_ops));
    Alcotest.(check bool) "no per-member counters" false
      (List.exists
         (fun (name, _) -> String.starts_with ~prefix:"disk.0." name)
         (Metrics.snapshot (Io.metrics io)));
    (Io.snapshot_media io, Io.now_us io)
  in
  let bare =
    workload (Io.of_geometry (geo ()) (Clock.create ()) Cpu_model.free)
  in
  let volume =
    workload
      (Io.of_volume
         (Volume.create (Volume.Stripe { chunk_sectors = 42 }) ~members:1
            (geo ()))
         (Clock.create ()) Cpu_model.free)
  in
  Alcotest.(check bool) "media byte-identical" true (fst bare = fst volume);
  Alcotest.(check int) "clock identical" (snd bare) (snd volume)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore on multi-member stacks                           *)
(* ------------------------------------------------------------------ *)

let test_snapshot_restore_deterministic () =
  let io =
    Setup.make_io ~disk_mb:16 ~cpu:Cpu_model.free
      ~volume:(Volume.Stripe { chunk_sectors = 64 }, 3)
      ()
  in
  let inst = Setup.lfs_on io ~config:Lfs_core.Config.small () in
  Driver.create inst "/a";
  Driver.write inst "/a" ~off:0 (Driver.content ~seed:1 5000);
  Driver.sync inst;
  let snap = Io.snapshot_media io in
  Alcotest.(check int) "snapshot is the member concatenation"
    (3 * (Volume.member_geometry (Io.volume io)).Geometry.sectors
   * (geo ()).Geometry.sector_size)
    (Bytes.length snap);
  (* Diverge, restore, and the media must match the snapshot exactly;
     a fresh mount of the restored media sees the old state. *)
  Driver.create inst "/b";
  Driver.write inst "/b" ~off:0 (Driver.content ~seed:2 9000);
  Driver.sync inst;
  Alcotest.(check bool) "media diverged" false (Io.snapshot_media io = snap);
  Io.restore_media io snap;
  Alcotest.(check bool) "restore is exact" true (Io.snapshot_media io = snap);
  match Lfs_core.Fs.mount ~config:Lfs_core.Config.small io with
  | Error e -> Alcotest.failf "remount after restore: %s" e
  | Ok fs ->
      let inst = Lfs_vfs.Fs_intf.Instance ((module Lfs_core.Fs), fs) in
      Alcotest.(check bytes) "old file survives"
        (Driver.content ~seed:1 5000)
        (Driver.read inst "/a" ~off:0 ~len:5000);
      Alcotest.(check bool) "new file gone" true
        (match Driver.read inst "/b" ~off:0 ~len:1 with
        | exception _ -> true
        | _ -> false)

(* ------------------------------------------------------------------ *)
(* Aggregate device counters                                           *)
(* ------------------------------------------------------------------ *)

(* The shared registry's aggregate [disk.*] counters must equal the
   per-member sums on a striped volume. *)
let test_disk_counters_are_member_sum () =
  let io =
    Setup.make_io ~disk_mb:16 ~cpu:Cpu_model.free
      ~volume:(Volume.Stripe { chunk_sectors = 64 }, 3)
      ()
  in
  let inst = Setup.lfs_on io ~config:Lfs_core.Config.small () in
  for i = 0 to 29 do
    let path = Printf.sprintf "/f%02d" i in
    Driver.create inst path;
    Driver.write inst path ~off:0 (Driver.content ~seed:i 7000);
    if i mod 10 = 9 then Driver.sync inst
  done;
  Driver.flush_caches inst;
  ignore (Driver.read inst "/f07" ~off:0 ~len:7000 : bytes);
  let total name =
    Lfs_obs.Metrics.value
      (Lfs_obs.Metrics.counter (Io.metrics io) ("disk." ^ name))
  in
  let sum field =
    List.fold_left ( + ) 0 (List.init 3 (fun i -> field (Io.member_stats io i)))
  in
  List.iter
    (fun (name, field) ->
      Alcotest.(check int) name (sum field) (total name))
    [
      ("reads", fun s -> s.Lfs_disk.Disk.reads);
      ("writes", fun s -> s.Lfs_disk.Disk.writes);
      ("sectors_read", fun s -> s.Lfs_disk.Disk.sectors_read);
      ("sectors_written", fun s -> s.Lfs_disk.Disk.sectors_written);
      ("seeks", fun s -> s.Lfs_disk.Disk.seeks);
      ("busy_us", fun s -> s.Lfs_disk.Disk.busy_us);
    ];
  Alcotest.(check bool) "every member did work" true
    (List.for_all
       (fun i -> (Io.member_stats io i).Lfs_disk.Disk.writes > 0)
       [ 0; 1; 2 ]);
  Alcotest.(check bool) "reads reached the media" true (total "reads" > 0)

(* ------------------------------------------------------------------ *)
(* Mirror degraded reads                                               *)
(* ------------------------------------------------------------------ *)

(* A sticky bad sector on one mirror member: the load-balanced read
   picks the faulted replica (its head is closest), exhausts its retry
   budget, fails over to the healthy member, and the caller sees good
   data.  The detour is visible in [io.degraded_reads] and the fault in
   [disk.faults.bad_sector_reads]. *)
let test_mirror_degraded_read () =
  let io =
    Io.of_volume
      (Volume.create Volume.Mirror ~members:2 (geo ()))
      (Clock.create ()) Cpu_model.free
  in
  let payload = Bytes.init 512 (fun i -> Char.chr (i mod 256)) in
  Io.sync_write io ~sector:5000 payload;
  (* Park member 0's head far away: the balanced read of sector 20000
     breaks its tie toward member 0, so the later read of 5000 prefers
     member 1 — the replica about to go bad. *)
  ignore (Io.sync_read io ~sector:20_000 ~count:1);
  let data, _inj =
    Scenario.with_faults ~member:1 io
      [ Scenario.Bad_sectors [ 5000 ] ]
      (fun () -> Io.sync_read io ~sector:5000 ~count:1)
  in
  Alcotest.(check bytes) "served from the healthy replica" payload data;
  Alcotest.(check bool) "failover counted" true (cval io "io.degraded_reads" > 0);
  Alcotest.(check bool) "fault counted under disk.faults.*" true
    (cval io "disk.faults.bad_sector_reads" > 0)

(* ------------------------------------------------------------------ *)
(* sync_read_into = sync_read                                          *)
(* ------------------------------------------------------------------ *)

(* [sync_read] is "allocate, then [sync_read_into]": on every volume
   shape the two must return the same bytes and leave the clock at the
   same time.  Each case runs twice on identical fresh stacks, once per
   entry point.  The stripe and log-stripe requests span several member
   runs (the scatter path); the mirror case fails its preferred replica
   with a sticky bad sector, so the read fails over. *)
let test_read_into_matches_read () =
  let cases =
    [
      ( "one member",
        (Volume.Stripe { chunk_sectors = (geo ()).Geometry.sectors }, 1),
        700,
        40 );
      ("3-member stripe", (Volume.Stripe { chunk_sectors = 16 }, 3), 10, 70);
      ("log stripe", (Volume.Log_stripe { stripe_sectors = 48 }, 3), 30, 100);
      ("mirror fail-over", (Volume.Mirror, 2), 5000, 8);
    ]
  in
  List.iter
    (fun (name, (policy, members), sector, count) ->
      if policy <> Volume.Mirror && members > 1 then
        Alcotest.(check bool) (name ^ ": spans runs") true
          (List.length
             (Volume.Map.map_read
                (Volume.Map.create policy ~members (geo ()))
                ~sector ~count)
          > 1);
      let written = Bytes.init (count * 512) (fun i -> Char.chr (i * 7 mod 251)) in
      let run read =
        let io =
          Io.of_volume
            (Volume.create policy ~members (geo ()))
            (Clock.create ()) Cpu_model.free
        in
        Io.sync_write io ~sector written;
        let data =
          if policy = Volume.Mirror then begin
            (* As in the degraded-read test: park member 0's head so the
               balanced read prefers member 1, the replica that fails. *)
            ignore (Io.sync_read io ~sector:20_000 ~count:1);
            fst
              (Scenario.with_faults ~member:1 io
                 [ Scenario.Bad_sectors [ sector ] ]
                 (fun () -> read io))
          end
          else read io
        in
        (data, Io.now_us io, cval io "io.degraded_reads")
      in
      let plain, plain_us, plain_degraded =
        run (fun io -> Io.sync_read io ~sector ~count)
      in
      (* A reused buffer longer than the request, full of stale bytes:
         the request fills its prefix and leaves the tail alone. *)
      let into, into_us, into_degraded =
        run (fun io ->
            let buf = Bytes.make ((count + 3) * 512) '#' in
            Io.sync_read_into io ~sector ~count buf;
            Alcotest.(check string)
              (name ^ ": tail untouched")
              (String.make (3 * 512) '#')
              (Bytes.sub_string buf (count * 512) (3 * 512));
            Bytes.sub buf 0 (count * 512))
      in
      Alcotest.(check bytes) (name ^ ": the written bytes") written into;
      Alcotest.(check bytes) (name ^ ": same bytes") plain into;
      Alcotest.(check int) (name ^ ": same clock") plain_us into_us;
      Alcotest.(check int)
        (name ^ ": same fail-overs")
        plain_degraded into_degraded;
      if policy = Volume.Mirror then
        Alcotest.(check bool) (name ^ ": failed over") true (into_degraded > 0))
    cases;
  let io = Io.of_geometry (geo ()) (Clock.create ()) Cpu_model.free in
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Io.sync_read_into: buffer too short") (fun () ->
      Io.sync_read_into io ~sector:0 ~count:4 (Bytes.create ((4 * 512) - 1)))

let suite =
  [
    qcheck locate_roundtrip;
    qcheck split_covers;
    Alcotest.test_case "mirror address map" `Quick test_mirror_map;
    Alcotest.test_case "1-member volume = bare disk" `Quick
      test_single_member_lockstep;
    Alcotest.test_case "snapshot/restore deterministic on volumes" `Quick
      test_snapshot_restore_deterministic;
    Alcotest.test_case "disk counters are the member sum" `Quick
      test_disk_counters_are_member_sum;
    Alcotest.test_case "mirror degraded read" `Quick
      test_mirror_degraded_read;
    Alcotest.test_case "sync_read_into matches sync_read" `Quick
      test_read_into_matches_read;
  ]
