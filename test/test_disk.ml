(* The disk substrate: geometry timing model, crash injection, the I/O
   scheduler's sync/async accounting, and the CPU model. *)

module Clock = Lfs_disk.Clock
module Cpu_model = Lfs_disk.Cpu_model
module Disk = Lfs_disk.Disk
module Geometry = Lfs_disk.Geometry
module Io = Lfs_disk.Io

let geo () = Geometry.wren_iv ~size_bytes:(8 * 1024 * 1024)

let test_geometry_derivations () =
  let g = geo () in
  (* WREN-IV calibration: ~1.2-1.3 MB/s, ~17.5 ms average seek, 3600 RPM. *)
  let bw = Geometry.bandwidth_bytes_per_sec g /. 1_048_576.0 in
  if bw < 1.1 || bw > 1.4 then Alcotest.failf "bandwidth %.2f MB/s off" bw;
  let seek = float_of_int (Geometry.avg_seek_us g) /. 1000.0 in
  if seek < 14.0 || seek > 21.0 then Alcotest.failf "avg seek %.1f ms off" seek;
  Alcotest.(check int) "rotation" 16_666 (Geometry.rotation_us g);
  Alcotest.(check int) "zero seek" 0 (Geometry.seek_us g ~from_cyl:5 ~to_cyl:5);
  Alcotest.(check bool) "monotone seek" true
    (Geometry.seek_us g ~from_cyl:0 ~to_cyl:10
    < Geometry.seek_us g ~from_cyl:0 ~to_cyl:100)

let test_sequential_vs_random () =
  let d = Disk.create (geo ()) in
  let buf = Bytes.make 4096 'x' in
  (* The head parks at sector 0, so go elsewhere first to pay a seek;
     the continuation then streams with no positioning cost. *)
  let first = Disk.write d ~sector:4000 buf in
  let second = Disk.write d ~sector:4008 buf in
  Alcotest.(check bool) "sequential cheaper" true (second < first);
  let far = Disk.write d ~sector:15_000 buf in
  Alcotest.(check bool) "random costs positioning" true (far > 2 * second)

let test_streamed_classification () =
  let d = Disk.create (geo ()) in
  let buf = Bytes.make 4096 'x' in
  ignore (Disk.write d ~sector:4000 buf);
  Alcotest.(check bool) "first request not streamed" false
    (Disk.last_was_streamed d);
  ignore (Disk.write d ~sector:4008 buf);
  Alcotest.(check bool) "exact continuation streamed" true
    (Disk.last_was_streamed d);
  (* Same cylinder but not contiguous: no seek, yet not sequential. *)
  ignore (Disk.write d ~sector:4020 buf);
  Alcotest.(check bool) "gap on same cylinder not streamed" false
    (Disk.last_was_streamed d)

let test_missed_rotation () =
  let g = geo () in
  let d = Disk.create g in
  let buf = Bytes.make 4096 'x' in
  let t0 = Disk.write ~start_us:0 d ~sector:4000 buf in
  (* Back to back, the continuation streams with transfer-only cost. *)
  let streamed = Disk.write ~start_us:t0 d ~sector:4008 buf in
  Alcotest.(check int) "back-to-back pays transfer only"
    (Geometry.transfer_us g ~sectors:8)
    streamed;
  ignore (Disk.write ~start_us:(t0 + streamed) d ~sector:4016 buf);
  (* Arriving after the device idled: the platter kept spinning, so the
     head waits out the rest of the rotation before the transfer. *)
  let idle_us = 1000 in
  let at = t0 + streamed + Geometry.transfer_us g ~sectors:8 + idle_us in
  let late = Disk.write ~start_us:at d ~sector:4024 buf in
  let rot = Geometry.rotation_us g in
  Alcotest.(check int) "late continuation pays the missed rotation"
    (rot - (idle_us mod rot) + Geometry.transfer_us g ~sectors:8)
    late

(* The sectors and service time of one device read. *)
let disk_read d ~sector ~count =
  let buf = Bytes.create (count * 512) in
  let us = Disk.read_into d ~sector ~count buf ~off:0 in
  (buf, us)

let test_disk_data_roundtrip () =
  let d = Disk.create (geo ()) in
  let data = Bytes.init 1536 (fun i -> Char.chr (i mod 256)) in
  ignore (Disk.write d ~sector:42 data);
  let got, _ = disk_read d ~sector:42 ~count:3 in
  Alcotest.(check bytes) "roundtrip" data got;
  (* Unwritten sectors read as zeros. *)
  let zeros, _ = disk_read d ~sector:45 ~count:1 in
  Alcotest.(check bytes) "zeros" (Bytes.make 512 '\000') zeros;
  (* [read_into] lands at [off] and leaves the rest of the buffer alone. *)
  let buf = Bytes.make 2048 '#' in
  ignore (Disk.read_into d ~sector:42 ~count:3 buf ~off:512 : int);
  Alcotest.(check bytes) "at off" data (Bytes.sub buf 512 1536);
  Alcotest.(check bytes) "prefix kept" (Bytes.make 512 '#') (Bytes.sub buf 0 512)

let test_disk_bounds () =
  let d = Disk.create (geo ()) in
  Alcotest.(check bool) "read oob" true
    (try
       ignore (disk_read d ~sector:(-1) ~count:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "read_into short buffer" true
    (try
       ignore (Disk.read_into d ~sector:0 ~count:2 (Bytes.create 1023) ~off:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "write misaligned" true
    (try
       ignore (Disk.write d ~sector:0 (Bytes.make 100 'x'));
       false
     with Invalid_argument _ -> true)

let test_crash_injection () =
  let d = Disk.create (geo ()) in
  Disk.set_crash_after d ~sectors:2;
  let data = Bytes.make 2048 'A' in
  (* 4 sectors requested, 2 permitted: the write tears. *)
  Alcotest.(check bool) "raises" true
    (try
       ignore (Disk.write d ~sector:0 data);
       false
     with Disk.Crash -> true);
  Alcotest.(check bool) "crashed" true (Disk.crashed d);
  Disk.clear_crash d;
  let got, _ = disk_read d ~sector:0 ~count:4 in
  Alcotest.(check bytes) "torn prefix" (Bytes.make 1024 'A') (Bytes.sub got 0 1024);
  Alcotest.(check bytes) "torn tail" (Bytes.make 1024 '\000') (Bytes.sub got 1024 1024);
  (* Writes work again after clear. *)
  ignore (Disk.write d ~sector:0 data)

let test_crash_while_down () =
  let d = Disk.create (geo ()) in
  Disk.set_crash_after d ~sectors:0;
  (try ignore (Disk.write d ~sector:0 (Bytes.make 512 'x')) with Disk.Crash -> ());
  Alcotest.(check bool) "still down" true
    (try
       ignore (Disk.write d ~sector:8 (Bytes.make 512 'x'));
       false
     with Disk.Crash -> true)

let test_snapshot_restore () =
  let d = Disk.create (geo ()) in
  ignore (Disk.write d ~sector:0 (Bytes.make 512 'A'));
  let snap = Bytes.create (Geometry.size_bytes (geo ()) + 512) in
  Disk.snapshot_into d snap ~off:512;
  ignore (Disk.write d ~sector:0 (Bytes.make 512 'B'));
  Disk.restore_from d snap ~off:512;
  let got, _ = disk_read d ~sector:0 ~count:1 in
  Alcotest.(check char) "restored" 'A' (Bytes.get got 0)

let make_io () =
  let clock = Clock.create () in
  let io = Io.of_geometry ~max_backlog_us:100_000 (geo ()) clock Cpu_model.free in
  (io, Io.member_disk io 0, clock)

let test_io_sync_advances_clock () =
  let io, _, clock = make_io () in
  Io.sync_write io ~sector:0 (Bytes.make 4096 'x');
  let t1 = Clock.now_us clock in
  Alcotest.(check bool) "sync waits" true (t1 > 0);
  ignore (Io.sync_read io ~sector:0 ~count:8);
  Alcotest.(check bool) "read waits" true (Clock.now_us clock > t1)

let test_io_async_overlaps () =
  let io, _, clock = make_io () in
  Io.async_write io ~sector:0 (Bytes.make 4096 'x');
  Alcotest.(check int) "no wait" 0 (Clock.now_us clock);
  Alcotest.(check bool) "queued" true (Io.backlog_us io > 0);
  Io.drain io;
  Alcotest.(check int) "drained" 0 (Io.backlog_us io);
  Alcotest.(check bool) "time passed" true (Clock.now_us clock > 0)

let test_io_throttling () =
  let io, _, clock = make_io () in
  (* Queue far more than the 100 ms backlog allowance: the caller must
     eventually be throttled. *)
  for i = 0 to 63 do
    Io.async_write io ~sector:(i * 8) (Bytes.make 4096 'x')
  done;
  Alcotest.(check bool) "throttled" true (Clock.now_us clock > 0);
  Alcotest.(check bool) "backlog capped" true (Io.backlog_us io <= 100_000)

(* Every request appears on the trace bus as a [Disk_request], in issue
   order, with its sync flag and kind. *)
let test_io_request_log () =
  let io, _, _ = make_io () in
  let reqs =
    Common.disk_requests io (fun () ->
        Io.sync_write io ~sector:0 (Bytes.make 512 'x');
        Io.async_write io ~sector:8 (Bytes.make 512 'x');
        ignore (Io.sync_read io ~sector:0 ~count:1))
  in
  Alcotest.(check int) "three requests" 3 (List.length reqs);
  match reqs with
  | [ w1; w2; r ] ->
      Alcotest.(check bool) "w1 sync" true w1.Common.sync;
      Alcotest.(check bool) "w2 async" false w2.Common.sync;
      Alcotest.(check bool) "r is read" true
        (r.Common.kind = Lfs_obs.Event.Read)
  | _ -> Alcotest.fail "unexpected log shape"

let test_cpu_model () =
  let m = Cpu_model.sun4_260 in
  Alcotest.(check int) "copy 1KB" m.Cpu_model.per_kb_us
    (Cpu_model.copy_us m ~bytes:1024);
  Alcotest.(check bool) "copy rounds up" true
    (Cpu_model.copy_us m ~bytes:1 > 0);
  let fast = Cpu_model.scale m 0.1 in
  Alcotest.(check bool) "scaled" true
    (fast.Cpu_model.syscall_us * 9 < m.Cpu_model.syscall_us)

let test_clock () =
  let c = Clock.create () in
  Clock.advance_us c 500;
  Clock.advance_to_us c 300 (* no-op backwards *);
  Alcotest.(check int) "monotone" 500 (Clock.now_us c);
  Clock.advance_to_us c 800;
  Alcotest.(check int) "forward" 800 (Clock.now_us c);
  Alcotest.(check bool) "negative rejected" true
    (try
       Clock.advance_us c (-1);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "geometry derivations" `Quick test_geometry_derivations;
    Alcotest.test_case "sequential vs random" `Quick test_sequential_vs_random;
    Alcotest.test_case "streamed classification" `Quick
      test_streamed_classification;
    Alcotest.test_case "missed rotation on idle continuation" `Quick
      test_missed_rotation;
    Alcotest.test_case "data roundtrip" `Quick test_disk_data_roundtrip;
    Alcotest.test_case "bounds checks" `Quick test_disk_bounds;
    Alcotest.test_case "crash injection (torn write)" `Quick test_crash_injection;
    Alcotest.test_case "crash keeps device down" `Quick test_crash_while_down;
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    Alcotest.test_case "sync advances clock" `Quick test_io_sync_advances_clock;
    Alcotest.test_case "async overlaps" `Quick test_io_async_overlaps;
    Alcotest.test_case "writer throttling" `Quick test_io_throttling;
    Alcotest.test_case "request log" `Quick test_io_request_log;
    Alcotest.test_case "cpu model" `Quick test_cpu_model;
    Alcotest.test_case "clock" `Quick test_clock;
  ]
