(* The benchmark workloads at miniature scale: every figure's qualitative
   shape must already hold in the small (these are the claims the paper's
   evaluation rests on). *)

module W = Lfs_workload

let test_creation_trace_shapes () =
  match List.map W.Creation_trace.run (W.Setup.both ~disk_mb:16 ()) with
  | [ lfs; ffs ] ->
      (* Figure 2: one large sequential asynchronous transfer. *)
      Alcotest.(check int) "LFS single write" 1 lfs.W.Creation_trace.writes;
      Alcotest.(check int) "LFS no sync writes" 0 lfs.W.Creation_trace.sync_writes;
      (* Figure 1: many small writes, several synchronous, scattered. *)
      Alcotest.(check bool) "FFS many writes" true (ffs.W.Creation_trace.writes >= 8);
      Alcotest.(check int) "FFS four sync writes" 4 ffs.W.Creation_trace.sync_writes;
      Alcotest.(check bool) "FFS seeks" true
        (ffs.W.Creation_trace.writes - ffs.W.Creation_trace.sequential_writes >= 4)
  | _ -> Alcotest.fail "expected two systems"

let test_smallfile_shapes () =
  match
    List.map
      (fun inst -> W.Smallfile.run ~nfiles:300 ~file_size:1024 inst)
      (W.Setup.both ~disk_mb:32 ())
  with
  | [ lfs; ffs ] ->
      (* Order-of-magnitude create/delete advantage; reads not worse. *)
      Alcotest.(check bool) "create speedup" true
        (lfs.W.Smallfile.create_per_sec > 5.0 *. ffs.W.Smallfile.create_per_sec);
      Alcotest.(check bool) "delete speedup" true
        (lfs.W.Smallfile.delete_per_sec > 5.0 *. ffs.W.Smallfile.delete_per_sec);
      Alcotest.(check bool) "read not worse" true
        (lfs.W.Smallfile.read_per_sec >= 0.8 *. ffs.W.Smallfile.read_per_sec)
  | _ -> Alcotest.fail "expected two systems"

let test_largefile_shapes () =
  match
    List.map (fun i -> W.Largefile.run ~file_mb:6 i) (W.Setup.both ~disk_mb:48 ())
  with
  | [ lfs; ffs ] ->
      (* LFS: random writes at least as fast as sequential (the log makes
         them sequential). *)
      Alcotest.(check bool) "LFS rand write ~ seq write" true
        (lfs.W.Largefile.rand_write_kbs >= 0.8 *. lfs.W.Largefile.seq_write_kbs);
      (* FFS: random writes pay for placement. *)
      Alcotest.(check bool) "FFS rand write slower" true
        (ffs.W.Largefile.rand_write_kbs < 0.8 *. ffs.W.Largefile.seq_write_kbs);
      (* The paper's counter-example: sequential re-read after random
         updates favours update-in-place. *)
      Alcotest.(check bool) "FFS wins seq reread" true
        (ffs.W.Largefile.seq_reread_kbs > lfs.W.Largefile.seq_reread_kbs);
      (* Sequential read comparable on both. *)
      Alcotest.(check bool) "seq read comparable" true
        (lfs.W.Largefile.seq_read_kbs > 0.7 *. ffs.W.Largefile.seq_read_kbs)
  | _ -> Alcotest.fail "expected two systems"

let make_small_lfs () =
  let io = W.Setup.make_io ~disk_mb:24 () in
  let config = { Lfs_core.Config.default with Lfs_core.Config.max_files = 8192 } in
  (match Lfs_core.Fs.format io config with
  | Ok () -> ()
  | Error e -> failwith e);
  match Lfs_core.Fs.mount ~config io with
  | Ok fs -> fs
  | Error e -> failwith e

let test_cleaning_shape () =
  let points =
    W.Cleaning.sweep ~utilizations:[ 0.1; 0.5; 0.8 ] make_small_lfs
  in
  (match points with
  | [ low; mid; high ] ->
      Alcotest.(check bool) "gross rate decreases" true
        (low.W.Cleaning.clean_kb_per_sec > mid.W.Cleaning.clean_kb_per_sec
        && mid.W.Cleaning.clean_kb_per_sec > high.W.Cleaning.clean_kb_per_sec);
      Alcotest.(check bool) "net rate collapses at high utilization" true
        (high.W.Cleaning.net_kb_per_sec < 0.4 *. low.W.Cleaning.net_kb_per_sec);
      (* Small disks add metadata noise; require only that the sweep's
         extremes order correctly. *)
      Alcotest.(check bool) "measured utilizations ordered" true
        (low.W.Cleaning.utilization < high.W.Cleaning.utilization)
  | _ -> Alcotest.fail "expected three points");
  ()

let test_hotcold_policies () =
  (* Under heavily skewed overwrites, cost-benefit should not be worse
     than 1.5x greedy (it usually wins); both must complete. *)
  let run policy =
    W.Hotcold.run ~theta:0.99 ~ops:2_000 ~disk_utilization:0.6 ~policy
      (make_small_lfs ())
  in
  let greedy = run Lfs_core.Config.Greedy in
  let cb = run Lfs_core.Config.Cost_benefit in
  Alcotest.(check bool) "both produce costs >= 1" true
    (greedy.W.Hotcold.write_cost >= 1.0 && cb.W.Hotcold.write_cost >= 1.0)

(* File contents are part of every trace replay and image, so the byte
   stream is pinned: (seed, length, first bytes, MD5 of the whole, the
   next [Rng.int g 1_000_000] of a generator that drew the same bytes one
   [Rng.int g 256] at a time).  The values come from the per-byte
   [Rng.int] formulation the contents were first defined by. *)
let content_golden =
  [
    (0, 0, "", "d41d8cd98f00b204e9800998ecf8427e", 303767);
    (0, 1, "d7", "7c0b8029c8bcebe338b92ceb504f912a", 177850);
    (1, 7, "6033af85dc4052", "c450dc3142572fe9593a8242013fa399", 30266);
    (7, 1024, "eb0e01e5ed087b7f", "fad6077c0df4c453495a03684580a954", 307385);
    (42, 4096, "4a81a9caf983aed2", "6b953d4ce62f5b21947c8849403b60df", 701803);
    ( 1_000_003, 1500, "92dc2588e788c6bc", "3155fa125244d0ff60ee716d93960e4b",
      985888 );
    (-3, 333, "ee80ce852fb31f57", "dfcddd812e3d003575f4a43401170312", 465736);
  ]

let test_content_golden () =
  let module Rng = Lfs_util.Rng in
  List.iter
    (fun (seed, len, prefix, md5, next) ->
      let name = Printf.sprintf "seed %d len %d" seed len in
      let b = W.Driver.content ~seed len in
      Alcotest.(check int) (name ^ " length") len (Bytes.length b);
      let hex =
        String.concat ""
          (List.init (min 8 len) (fun i ->
               Printf.sprintf "%02x" (Char.code (Bytes.get b i))))
      in
      Alcotest.(check string) (name ^ " first bytes") prefix hex;
      Alcotest.(check string) (name ^ " md5") md5
        (Digest.to_hex (Digest.bytes b));
      (* The bulk draw gives the per-byte draws' bytes and leaves the
         generator where they do. *)
      let per_byte =
        let r = Rng.create seed in
        Bytes.init len (fun _ -> Char.chr (Rng.int r 256))
      in
      let g = Rng.create seed in
      Alcotest.(check bool) (name ^ " = per-byte draws") true
        (Bytes.equal (Rng.bytes g len) per_byte);
      Alcotest.(check int) (name ^ " generator state") next
        (Rng.int g 1_000_000))
    content_golden;
  (* Only the result is allocated: 1 KB is 129 words plus the generator;
     one boxed [int64] per byte was ~6,300 words. *)
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (W.Driver.content ~seed:5 1024));
  let words = Gc.minor_words () -. before in
  if words > 300. then
    Alcotest.failf "content of 1 KB allocated %.0f words (budget 300)" words

let suite =
  [
    Alcotest.test_case "content golden bytes" `Quick test_content_golden;
    Alcotest.test_case "fig1/2 shapes" `Quick test_creation_trace_shapes;
    Alcotest.test_case "fig3 shapes" `Quick test_smallfile_shapes;
    Alcotest.test_case "fig4 shapes" `Slow test_largefile_shapes;
    Alcotest.test_case "fig5 shape" `Slow test_cleaning_shape;
    Alcotest.test_case "hot/cold policies run" `Slow test_hotcold_policies;
  ]
