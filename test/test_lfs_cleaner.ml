(* Segment cleaning (§4.3): liveness, space reclamation, policies. *)

open Common
module Fs = Lfs_core.Fs
module Config = Lfs_core.Config
module Seg_usage = Lfs_core.Seg_usage

let no_autoclean = { small_config with Config.auto_clean = false }

let fill_and_delete fs ~files ~keep_every =
  for i = 0 to files - 1 do
    write_file fs (Printf.sprintf "/f%03d" i) (pattern ~seed:i 1500)
  done;
  Fs.sync fs;
  for i = 0 to files - 1 do
    if i mod keep_every <> 0 then
      check_ok "delete" (Fs.delete fs (Printf.sprintf "/f%03d" i))
  done;
  Fs.sync fs

let test_cleaning_reclaims_space () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:100 ~keep_every:4;
  let before = Fs.clean_segment_count fs in
  let freed = Fs.clean_now ~target:max_int fs in
  let after = Fs.clean_segment_count fs in
  Alcotest.(check bool) "freed segments" true (freed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "clean count grew (%d -> %d)" before after)
    true (after > before)

let test_cleaning_preserves_data () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:100 ~keep_every:3;
  ignore (Fs.clean_now ~target:max_int fs);
  Fs.flush_caches fs;
  for i = 0 to 99 do
    if i mod 3 = 0 then
      check_bytes
        (Printf.sprintf "f%03d" i)
        (pattern ~seed:i 1500)
        (read_all fs (Printf.sprintf "/f%03d" i))
  done

let test_cleaning_preserves_large_file () =
  (* Indirect blocks must survive evacuation. *)
  let fs = make_lfs ~size_bytes:(24 * 1024 * 1024) ~config:no_autoclean () in
  let size = 400 * 1024 in
  let data = pattern ~seed:77 size in
  check_ok "create" (Fs.create fs "/big");
  check_ok "write" (Fs.write fs "/big" ~off:0 data);
  (* Interleave small files, sync, delete them to fragment segments. *)
  for i = 0 to 99 do
    write_file fs (Printf.sprintf "/s%03d" i) (pattern ~seed:i 1024)
  done;
  Fs.sync fs;
  for i = 0 to 99 do
    check_ok "delete" (Fs.delete fs (Printf.sprintf "/s%03d" i))
  done;
  ignore (Fs.clean_now ~target:max_int fs);
  Fs.flush_caches fs;
  check_bytes "big file intact" data (read_all fs "/big")

(* A victim whose summary no longer decodes cannot be evacuated: the
   cleaner cannot tell which of its blocks are live, so it must leave the
   segment dirty rather than free data Seg_usage says is still there. *)
let test_unreadable_summary_keeps_segment () =
  (* Full-size segments, so each file's segment is mostly empty and a
     cleaning candidate. *)
  let config = Config.default in
  let fs = make_lfs ~config () in
  let io = Fs.io fs in
  let remount () =
    match Fs.mount ~config io with
    | Ok fs -> fs
    | Error e -> Alcotest.failf "remount: %s" e
  in
  check_ok "mkdir" (Fs.mkdir fs "/d");
  Fs.unmount fs;
  (* One mount per file, as separate tool runs would do. *)
  for i = 1 to 5 do
    let fs = remount () in
    write_file fs (Printf.sprintf "/d/f%d" i) (pattern ~seed:i (3000 * i));
    Fs.unmount fs
  done;
  let fs = remount () in
  let layout = Fs.layout fs in
  let f5 = Lfs_core.Block_file.regular fs "/d/f5" in
  let seg =
    Lfs_core.Layout.segment_of_block layout
      (Lfs_core.Inode_store.bmap_read fs f5 0)
  in
  Alcotest.(check bool) "victim holds live data" true
    (Seg_usage.live_bytes fs.Lfs_core.State.usage seg > 0);
  Io.sync_write io
    ~sector:
      (Lfs_core.Layout.sector_of_block layout
         (Lfs_core.Layout.segment_first_block layout seg))
    (Bytes.make
       (layout.Lfs_core.Layout.summary_blocks
      * layout.Lfs_core.Layout.block_size)
       '\000');
  let fs = remount () in
  ignore (Fs.clean_now ~target:max_int fs);
  Alcotest.(check bool) "victim still dirty" true
    (Seg_usage.state fs.Lfs_core.State.usage seg = Seg_usage.Dirty);
  (* Churn the other files through the log, so a wrongly freed segment
     would be overwritten. *)
  for round = 0 to 20 do
    for i = 1 to 4 do
      check_ok "overwrite"
        (Fs.write fs (Printf.sprintf "/d/f%d" i) ~off:0
           (pattern ~seed:(round + (10 * i)) 40_000))
    done;
    Fs.sync fs;
    ignore (Fs.clean_now fs)
  done;
  Fs.flush_caches fs;
  check_bytes "f5 intact" (pattern ~seed:5 15_000) (read_all fs "/d/f5")

module Layout = Lfs_core.Layout
module Inode_store = Lfs_core.Inode_store

let remount_lfs fs =
  let io = Fs.io fs in
  let config = Fs.config fs in
  Fs.unmount fs;
  match Fs.mount ~config io with
  | Ok fs -> fs
  | Error e -> Alcotest.failf "remount: %s" e

(* The payload block count a segment's summary records. *)
let summary_nblocks fs seg =
  let layout = Fs.layout fs in
  match
    Lfs_core.Summary.decode
      (Io.sync_read (Fs.io fs)
         ~sector:
           (Layout.sector_of_block layout (Layout.segment_first_block layout seg))
         ~count:(layout.Layout.summary_blocks * layout.Layout.block_sectors))
  with
  | Some (header, _) -> header.Lfs_core.Summary.nblocks
  | None -> Alcotest.failf "segment %d: summary does not decode" seg

(* A victim whose payload fails its summary's CRC is not moved: copying
   it would give a damaged block a fresh, valid CRC in a new segment.
   The segment still holds live data, so it stays Dirty and nothing is
   relocated.  Once the byte is repaired, the same call cleans it. *)
let test_bad_payload_crc_keeps_segment () =
  let fs = make_lfs ~config:no_autoclean () in
  let io = Fs.io fs in
  let layout = Fs.layout fs in
  let data = pattern ~seed:3 3000 in
  write_file fs "/f" data;
  Fs.sync fs;
  let addr_of_block1 () =
    Inode_store.bmap_read fs (Lfs_core.Block_file.regular fs "/f") 1
  in
  let addr = addr_of_block1 () in
  let seg = Layout.segment_of_block layout addr in
  let sector = Layout.sector_of_block layout addr in
  let good = Io.sync_read io ~sector ~count:layout.Layout.block_sectors in
  let bad = Bytes.copy good in
  Bytes.set bad 17 (Char.chr (Char.code (Bytes.get bad 17) lxor 0x40));
  Io.sync_write io ~sector bad;
  (* A cached copy of the block would be moved instead of the disk's. *)
  Fs.flush_caches fs;
  let moved0 = lfs_counter fs "cleaner_bytes_moved" in
  Alcotest.(check int) "nothing freed" 0
    (Lfs_core.Cleaner.clean_exact fs ~victims:[ seg ]);
  Alcotest.(check bool) "victim still dirty" true
    (Seg_usage.state fs.Lfs_core.State.usage seg = Seg_usage.Dirty);
  Alcotest.(check int) "nothing moved" moved0
    (lfs_counter fs "cleaner_bytes_moved");
  Alcotest.(check int) "block not relocated" addr (addr_of_block1 ());
  Io.sync_write io ~sector good;
  Alcotest.(check int) "repaired victim freed" 1
    (Lfs_core.Cleaner.clean_exact fs ~victims:[ seg ]);
  Fs.flush_caches fs;
  check_bytes "f intact" data (read_all fs "/f")

(* The cleaner reads every victim into one reused buffer.  Victim A holds
   a sparse file's single-indirect block and its double-indirect top and
   child; victim B, shorter, is cleaned after A in the same pass and
   overwrites the buffer.  Whatever the cache kept from A must be a copy:
   the file reads back intact in the same mount, after a cache flush and
   after a remount, and the integrity check stays clean. *)
let test_victim_buffer_reuse () =
  let fs = make_lfs ~config:no_autoclean () in
  let layout = Fs.layout fs in
  let bs = layout.Layout.block_size in
  let ppb = Layout.ptrs_per_block layout in
  let blocks =
    List.map
      (fun (blkno, seed) -> (blkno * bs, pattern ~seed bs))
      [
        (0, 1);
        (Lfs_core.Inode.ndirect + 5, 2) (* single-indirect range *);
        (Lfs_core.Inode.ndirect + ppb + 3, 3) (* double-indirect range *);
      ]
  in
  check_ok "create" (Fs.create fs "/sparse");
  List.iter
    (fun (off, d) -> check_ok "write" (Fs.write fs "/sparse" ~off d))
    blocks;
  Fs.sync fs;
  let tiny = pattern ~seed:4 100 in
  write_file fs "/tiny" tiny;
  Fs.sync fs;
  let seg_of addr = Layout.segment_of_block layout addr in
  let e = Lfs_core.Block_file.regular fs "/sparse" in
  let a = seg_of e.Lfs_core.State.ino.Lfs_core.Inode.indirect in
  Alcotest.(check bool) "pointer blocks share victim A" true
    (seg_of e.Lfs_core.State.ino.Lfs_core.Inode.dindirect = a
    && seg_of (Inode_store.dind_child_addr fs e 0) = a);
  let b =
    seg_of
      (Inode_store.bmap_read fs (Lfs_core.Block_file.regular fs "/tiny") 0)
  in
  Alcotest.(check bool) "B is a shorter segment" true
    (b <> a && summary_nblocks fs b < summary_nblocks fs a);
  Fs.flush_caches fs;
  let passes0 = lfs_counter fs "cleaner_passes" in
  Alcotest.(check int) "both freed" 2
    (Lfs_core.Cleaner.clean_exact fs ~victims:[ a; b ]);
  Alcotest.(check int) "in one pass" 1
    (lfs_counter fs "cleaner_passes" - passes0);
  let check_all fs what =
    List.iter
      (fun (off, d) ->
        check_bytes
          (Printf.sprintf "%s: /sparse at %d" what off)
          d
          (check_ok "read" (Fs.read fs "/sparse" ~off ~len:bs)))
      blocks;
    check_bytes (what ^ ": /tiny") tiny (read_all fs "/tiny");
    Alcotest.(check (list string)) (what ^ ": integrity") [] (Fs.integrity fs)
  in
  check_all fs "same mount";
  Fs.flush_caches fs;
  check_all fs "cold cache";
  check_all (remount_lfs fs) "remounted"

(* The cleaner caches a pointer block it has read only if it is live,
   and as a copy of what it read.  A dead copy cached under its raw
   address would outlive its segment: once the segment is reused, a new
   pointer block written at that address would read back as the stale
   copy.  The cache's spare buffers hold other files' data when the
   cleaner runs, so a cached copy that did not overwrite its recycled
   buffer would map the file to garbage. *)
let test_cleaner_caches_live_pointer_blocks () =
  let fs = make_lfs ~config:no_autoclean () in
  let layout = Fs.layout fs in
  let bs = layout.Layout.block_size in
  let off = (Lfs_core.Inode.ndirect + 5) * bs in
  check_ok "create" (Fs.create fs "/sparse");
  check_ok "write" (Fs.write fs "/sparse" ~off (pattern ~seed:1 bs));
  Fs.sync fs;
  let indirect () =
    (Lfs_core.Block_file.regular fs "/sparse").Lfs_core.State.ino
      .Lfs_core.Inode.indirect
  in
  let dead = indirect () in
  (* Rewriting the block rewrites its pointer block elsewhere. *)
  let data = pattern ~seed:2 bs in
  check_ok "rewrite" (Fs.write fs "/sparse" ~off data);
  Fs.sync fs;
  let live = indirect () in
  let seg_of = Layout.segment_of_block layout in
  Alcotest.(check bool) "pointer block moved to another segment" true
    (seg_of live <> seg_of dead);
  let fillers = small_config.Config.cache_blocks * 5 / 4 in
  let filler i = Printf.sprintf "/filler%03d" i in
  for i = 0 to fillers - 1 do
    write_file fs (filler i) (pattern ~seed:(100 + i) bs)
  done;
  Fs.sync fs;
  (* Fill the cache with the fillers' blocks, then recycle them all. *)
  Fs.flush_caches fs;
  for i = 0 to fillers - 1 do
    ignore (read_all fs (filler i))
  done;
  Fs.flush_caches fs;
  Alcotest.(check int) "victims freed" 2
    (Lfs_core.Cleaner.clean_exact fs ~victims:[ seg_of dead; seg_of live ]);
  Alcotest.(check bool) "dead copy not cached" false
    (Lfs_cache.Block_cache.mem fs.Lfs_core.State.cache
       (Lfs_core.Block_io.key_raw dead));
  let check_all fs what =
    check_bytes (what ^ ": /sparse") data
      (check_ok "read" (Fs.read fs "/sparse" ~off ~len:bs));
    Alcotest.(check (list string)) (what ^ ": integrity") [] (Fs.integrity fs)
  in
  check_all fs "same mount";
  Fs.flush_caches fs;
  check_all (remount_lfs fs) "remounted"

let test_log_wraps () =
  (* Total bytes written far exceed the disk: the log must wrap through
     cleaned segments indefinitely. *)
  let fs = make_lfs ~size_bytes:(4 * 1024 * 1024) () in
  for round = 0 to 30 do
    let path = Printf.sprintf "/wrap%d" (round mod 3) in
    if Fs.exists fs path then check_ok "delete" (Fs.delete fs path);
    check_ok "create" (Fs.create fs path);
    check_ok "write" (Fs.write fs path ~off:0 (pattern ~seed:round (256 * 1024)));
    Fs.sync fs
  done;
  (* ~8 MB written through a 4 MB disk. *)
  Alcotest.(check bool) "cleaner ran" true (lfs_counter fs "segments_cleaned" > 0)

let test_greedy_picks_emptiest () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:60 ~keep_every:2;
  let report = Fs.segment_report fs in
  let dirty =
    List.filter (fun (_, s, _) -> s = Seg_usage.Dirty) report
    |> List.map (fun (seg, _, u) -> (u, seg))
    |> List.sort compare
  in
  match dirty with
  | [] -> Alcotest.fail "no dirty segments"
  | (_, emptiest) :: _ ->
      let victims = Lfs_core.Cleaner.select_victims fs ~batch:1 in
      Alcotest.(check (list int)) "greedy victim" [ emptiest ] victims

let test_policies_all_run () =
  List.iter
    (fun policy ->
      let fs = make_lfs ~config:{ no_autoclean with Config.policy } () in
      fill_and_delete fs ~files:80 ~keep_every:4;
      ignore (Fs.clean_now ~target:max_int fs);
      for i = 0 to 79 do
        if i mod 4 = 0 then
          check_bytes
            (Printf.sprintf "%s f%03d" (Config.policy_name policy) i)
            (pattern ~seed:i 1500)
            (read_all fs (Printf.sprintf "/f%03d" i))
      done)
    [ Config.Greedy; Config.Cost_benefit; Config.Oldest ]

let test_full_segments_not_selected () =
  let fs = make_lfs ~config:no_autoclean () in
  (* Create files but delete nothing: all dirty segments are ~full. *)
  for i = 0 to 59 do
    write_file fs (Printf.sprintf "/f%03d" i) (pattern ~seed:i 1500)
  done;
  Fs.sync fs;
  let victims = Lfs_core.Cleaner.select_victims fs ~batch:10 in
  (* Only partial segments (tail of log) may be eligible. *)
  List.iter
    (fun seg ->
      let u = Lfs_core.Seg_usage.utilization
                (let st : Lfs_core.State.t = fs in st.usage) seg in
      Alcotest.(check bool) "victim below threshold" true
        (u < small_config.Config.max_live_fraction))
    victims

let test_write_cost_reported () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:100 ~keep_every:3;
  Alcotest.(check bool) "cost starts at ~1" true (Fs.write_cost fs >= 1.0);
  ignore (Fs.clean_now ~target:max_int fs);
  Alcotest.(check bool) "cleaning raises write cost" true (Fs.write_cost fs > 1.0)

let test_enospc_when_truly_full () =
  let fs = make_lfs ~size_bytes:(2 * 1024 * 1024) () in
  let wrote = ref 0 in
  let full = ref false in
  (try
     for i = 0 to 10_000 do
       (match Fs.create fs (Printf.sprintf "/fill%05d" i) with
       | Ok () -> ()
       | Error Lfs_vfs.Errors.Enospc -> raise Exit
       | Error e -> Alcotest.failf "create: %s" (Lfs_vfs.Errors.to_string e));
       (match
          Fs.write fs (Printf.sprintf "/fill%05d" i) ~off:0 (pattern ~seed:i 4096)
        with
       | Ok () -> incr wrote
       | Error Lfs_vfs.Errors.Enospc -> raise Exit
       | Error e -> Alcotest.failf "write: %s" (Lfs_vfs.Errors.to_string e))
     done
   with Exit -> full := true);
  Alcotest.(check bool) "eventually reports Enospc" true !full;
  (* Must have stored a sensible fraction of the disk before failing. *)
  Alcotest.(check bool)
    (Printf.sprintf "stored enough before Enospc (%d files)" !wrote)
    true
    (!wrote * 4096 > 1024 * 1024 / 2);
  (* Still consistent and readable. *)
  let names = check_ok "readdir" (Fs.readdir fs "/") in
  ignore (read_all fs ("/" ^ List.hd names))

let test_structurally_sound_after_cleaning () =
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:100 ~keep_every:3;
  ignore (Fs.clean_now ~target:max_int fs);
  match Lfs_core.Check.fsck fs with
  | [] -> ()
  | issues ->
      Alcotest.failf "structural issues after cleaning: %s"
        (String.concat "; "
           (List.map Lfs_vfs.Issue.to_string issues))

let test_usage_accounting_exact () =
  (* The incremental live-byte estimates must track ground truth through
     create/overwrite/delete/clean cycles (modulo the usage-array
     self-reference, which the paper tolerates: the array's own blocks
     move during the checkpoint that records them). *)
  let fs = make_lfs ~config:no_autoclean () in
  fill_and_delete fs ~files:120 ~keep_every:3;
  for i = 0 to 119 do
    if i mod 6 = 0 then
      check_ok "overwrite" (Fs.write fs (Printf.sprintf "/f%03d" i) ~off:0 (pattern ~seed:(i + 7) 1500))
  done;
  Fs.sync fs;
  ignore (Fs.clean_now ~target:max_int fs);
  let layout = Fs.layout fs in
  let tolerance = 2 * layout.Lfs_core.Layout.block_size in
  List.iter
    (fun (seg, recorded, truth) ->
      if abs (recorded - truth) > tolerance then
        Alcotest.failf "segment %d accounting drift: recorded %d vs truth %d"
          seg recorded truth)
    (Lfs_core.Check.usage_drift fs)

let suite =
  [
    Alcotest.test_case "usage accounting matches ground truth" `Quick
      test_usage_accounting_exact;
    Alcotest.test_case "structurally sound after cleaning" `Quick
      test_structurally_sound_after_cleaning;
    Alcotest.test_case "reclaims space" `Quick test_cleaning_reclaims_space;
    Alcotest.test_case "preserves data" `Quick test_cleaning_preserves_data;
    Alcotest.test_case "preserves large file" `Quick
      test_cleaning_preserves_large_file;
    Alcotest.test_case "unreadable summary keeps segment" `Quick
      test_unreadable_summary_keeps_segment;
    Alcotest.test_case "bad payload CRC keeps segment" `Quick
      test_bad_payload_crc_keeps_segment;
    Alcotest.test_case "cleaner caches live pointer blocks only" `Quick
      test_cleaner_caches_live_pointer_blocks;
    Alcotest.test_case "victim buffer reuse keeps copies" `Quick
      test_victim_buffer_reuse;
    Alcotest.test_case "log wraps" `Quick test_log_wraps;
    Alcotest.test_case "greedy picks emptiest" `Quick test_greedy_picks_emptiest;
    Alcotest.test_case "all policies preserve data" `Quick test_policies_all_run;
    Alcotest.test_case "full segments not selected" `Quick
      test_full_segments_not_selected;
    Alcotest.test_case "write cost reported" `Quick test_write_cost_reported;
    Alcotest.test_case "Enospc when truly full" `Quick
      test_enospc_when_truly_full;
  ]
