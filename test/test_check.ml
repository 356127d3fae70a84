(* Corruption injection: fabricate each class of damage the checker
   exists to catch, directly in the mounted state, and assert that fsck
   reports exactly that class (and pretty-prints it usefully).  A checker
   only proven against healthy file systems proves nothing.

   Both file systems run the one checker in Lfs_vfs.Block_file, so each
   corruption is written once, as a row of [Rows], and planted on LFS
   and on FFS alike. *)

module Issue = Lfs_vfs.Issue
module Check = Lfs_core.Check
module Fs = Lfs_core.Fs
module Imap = Lfs_core.Imap
module Inode = Lfs_core.Inode
module Inode_store = Lfs_core.Inode_store
module Layout = Lfs_core.Layout
module Block_file = Lfs_core.Block_file
module Seg_usage = Lfs_core.Seg_usage
module State = Lfs_core.State
module F = Lfs_ffs.Fs
module Falloc = Lfs_ffs.Alloc
module Finode = Lfs_ffs.Inode
module Flayout = Lfs_ffs.Layout

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

let assert_rendered what sub rendered =
  if not (List.exists (fun s -> contains s sub) rendered) then
    Alcotest.failf "%s: no issue mentions %S in: %s" what sub
      (String.concat " | " rendered)

let components path =
  List.filter (fun c -> c <> "") (String.split_on_char '/' path)

(* What a corruption row needs of a file system, below its syscalls. *)
module type SYS = sig
  type t

  val make_sound : unit -> t
  (** Two 9000-byte files [/f1] and [/f2], synced so every block has a
      disk address, verified sound. *)

  val fsck : t -> Issue.t list
  val integrity : t -> string list
  val inum_of : t -> string -> int
  val direct : t -> int -> int array
  val set_nlink : t -> int -> int -> unit
  val total_blocks : t -> int
  val free_inode : t -> int -> unit
  val add_entry : t -> dir:int -> string -> int -> unit
  val remove_entry : t -> dir:int -> string -> unit
  val mkdir : t -> string -> unit

  val damage_inode : t -> t * int
  (** Clobber one allocated inode on the media and remount: the new
      mount and the inode's number. *)
end

module Rows (S : SYS) = struct
  (* A row plants its corruption and returns the file system to check
     and the issue it must produce. *)
  let double_reference fs =
    let d1 = S.direct fs (S.inum_of fs "/f1") in
    let stolen = (S.direct fs (S.inum_of fs "/f2")).(0) in
    d1.(0) <- stolen;
    ( fs,
      function
      | Issue.Double_reference { addr; owners } ->
          addr = stolen && List.length owners = 2
      | _ -> false )

  let address_out_of_range fs =
    let wild = S.total_blocks fs + 10 in
    (S.direct fs (S.inum_of fs "/f1")).(0) <- wild;
    (fs, function Issue.Address_out_of_range { addr; _ } -> addr = wild | _ -> false)

  let bad_nlink fs =
    let inum = S.inum_of fs "/f1" in
    S.set_nlink fs inum 5;
    ( fs,
      function
      | Issue.Bad_nlink { inum = i; nlink; entries } ->
          i = inum && nlink = 5 && entries = 1
      | _ -> false )

  let bad_dir_entry fs =
    let inum = S.inum_of fs "/f1" in
    S.free_inode fs inum;
    ( fs,
      function
      | Issue.Bad_dir_entry { name; inum = i; _ } -> name = "f1" && i = inum
      | _ -> false )

  let orphan_inode fs =
    let inum = S.inum_of fs "/f1" in
    S.remove_entry fs ~dir:(S.inum_of fs "/") "f1";
    (fs, function Issue.Orphan_inode { inum = i } -> i = inum | _ -> false)

  let unreadable fs =
    let fs, inum = S.damage_inode fs in
    (fs, function Issue.Unreadable { inum = i; _ } -> i = inum | _ -> false)

  (* A directory that names itself: the walk must end, and the extra
     link still counts. *)
  let directory_cycle fs =
    S.mkdir fs "/d";
    let d = S.inum_of fs "/d" in
    S.add_entry fs ~dir:d "up" d;
    ( fs,
      function
      | Issue.Bad_nlink { inum; entries = 2; _ } -> inum = d | _ -> false )

  let table =
    [
      ("double reference", "referenced by", double_reference);
      ("address out of range", "out-of-range", address_out_of_range);
      ("bad nlink", "nlink 5", bad_nlink);
      ("bad dir entry", "unallocated", bad_dir_entry);
      ("orphan inode", "unreachable", orphan_inode);
      ("unreadable inode", "unreadable", unreadable);
      ("directory cycle", "directory entries", directory_cycle);
    ]

  let run (kind, mentions, plant) () =
    let fs, expected = plant (S.make_sound ()) in
    let issues = S.fsck fs in
    Alcotest.(check bool) "issue detected" true (List.exists expected issues);
    assert_rendered kind mentions (List.map Issue.to_string issues);
    Alcotest.(check bool) "integrity reports it" false (S.integrity fs = [])

  let cases prefix =
    List.map
      (fun ((kind, _, _) as row) -> (prefix ^ ": " ^ kind, `Quick, run row))
      table
end

module Lfs_sys = struct
  type t = State.t

  let make_sound () =
    let fs = Common.make_lfs () in
    Common.write_file fs "/f1" (Common.pattern ~seed:1 9000);
    Common.write_file fs "/f2" (Common.pattern ~seed:2 9000);
    Fs.sync fs;
    Alcotest.(check (list string)) "sound before corruption" [] (Fs.integrity fs);
    fs

  let fsck = Check.fsck
  let integrity = Fs.integrity
  let inum_of fs path = Block_file.resolve fs (components path)
  let ino fs inum = (Inode_store.find fs inum).State.ino
  let direct fs inum = (ino fs inum).Inode.direct
  let set_nlink fs inum n = (ino fs inum).Inode.nlink <- n
  let total_blocks fs = (Fs.layout fs).Layout.total_blocks
  let free_inode (fs : t) inum = Imap.free fs.State.imap inum
  let add_entry = Block_file.add
  let remove_entry = Block_file.remove
  let mkdir fs path = Common.check_ok "mkdir" (Fs.mkdir fs path)

  (* Zero the inode block holding /d/f, which holds no other live inode
     once the root has moved on to a newer one. *)
  let damage_inode fs =
    mkdir fs "/d";
    Common.write_file fs "/d/f" (Common.pattern ~seed:4 5000);
    Fs.sync fs;
    Common.write_file fs "/g" (Common.pattern ~seed:5 100);
    Fs.unmount fs;
    let inum = inum_of fs "/d/f" in
    let addr, _slot = Option.get (Imap.location fs.State.imap inum) in
    let root_addr, _ = Option.get (Imap.location fs.State.imap State.root_inum) in
    Alcotest.(check bool) "root inode elsewhere" true (root_addr <> addr);
    let layout = Fs.layout fs in
    let io = Fs.io fs in
    Lfs_disk.Io.sync_write io
      ~sector:(Layout.sector_of_block layout addr)
      (Bytes.make layout.Layout.block_size '\000');
    match Fs.mount ~config:Common.small_config io with
    | Ok fs -> (fs, inum)
    | Error e -> Alcotest.failf "remount: %s" e
end

module Ffs_sys = struct
  type t = F.t

  let remount io =
    match F.mount ~config:Lfs_ffs.Config.small io with
    | Ok fs -> fs
    | Error e -> failwith e

  let make_sound () =
    let io = Common.make_io () in
    (match F.format io Lfs_ffs.Config.small with
    | Ok () -> ()
    | Error e -> failwith e);
    let fs = remount io in
    List.iter
      (fun (path, seed) ->
        Common.check_ok "create" (F.create fs path);
        Common.check_ok "write" (F.write fs path ~off:0 (Common.pattern ~seed 9000)))
      [ ("/f1", 1); ("/f2", 2) ];
    F.sync fs;
    Alcotest.(check (list string)) "sound before corruption" [] (F.integrity fs);
    fs

  let fsck = F.fsck
  let integrity = F.integrity
  let inum_of fs path = F.Block_file.resolve fs (components path)
  let direct fs inum = (F.inode_of fs inum).Finode.direct
  let set_nlink fs inum n = (F.inode_of fs inum).Finode.nlink <- n
  let total_blocks fs = (F.layout fs).Flayout.total_blocks
  let free_inode fs inum = Falloc.free_inode (F.alloc fs) inum
  let add_entry = F.Block_file.add
  let remove_entry = F.Block_file.remove
  let mkdir fs path = Common.check_ok "mkdir" (F.mkdir fs path)

  (* Overwrite /f1's slot in its inode-table block on the media with
     [byte], leaving its inode-bitmap bit set, and remount. *)
  let clobber_slot fs byte =
    let inum = inum_of fs "/f1" in
    let layout = F.layout fs and io = F.io fs in
    let addr, slot = Flayout.inode_location layout inum in
    let sector = Flayout.sector_of_block layout addr in
    let block =
      Lfs_disk.Io.sync_read io ~sector ~count:layout.Flayout.block_sectors
    in
    Bytes.fill block (slot * Flayout.inode_bytes) Flayout.inode_bytes byte;
    Lfs_disk.Io.sync_write io ~sector block;
    (remount io, inum)

  let damage_inode fs = clobber_slot fs '\000'
end

module Lfs_rows = Rows (Lfs_sys)
module Ffs_rows = Rows (Ffs_sys)

let test_usage_drift () =
  let fs = Lfs_sys.make_sound () in
  (* make_sound already proved the baseline within tolerance; a couple of
     blocks of self-reference slack on the tail segment is normal.  The
     injected error must surface as exactly that much *additional*
     drift. *)
  let drift_at seg =
    match List.find_opt (fun (s, _, _) -> s = seg) (Check.usage_drift fs) with
    | Some (_, recorded, recomputed) -> recorded - recomputed
    | None -> 0
  in
  let before = drift_at 0 in
  let bs = (Fs.layout fs).Layout.block_size in
  Seg_usage.add_live fs.State.usage 0 ~bytes:(64 * bs) ~now_us:0;
  Alcotest.(check int) "injected drift surfaces at its segment"
    (before + (64 * bs))
    (drift_at 0);
  (* Past the sanitizer's tolerance, so the always-on audit fails too. *)
  assert_rendered "usage drift" "usage drift" (Fs.integrity fs)

(* FFS only: the cylinder-group bitmaps against the ownership map, and
   an inode slot that does not even decode. *)

let test_ffs_lost_block () =
  let fs = Ffs_sys.make_sound () in
  (* Free a block the root directory still points at: referenced but
     marked free in its cylinder-group bitmap. *)
  let addr = (F.inode_of fs F.root_inum).Finode.direct.(0) in
  Falloc.free_block (F.alloc fs) addr;
  let issues = F.fsck fs in
  let found =
    List.exists
      (function Issue.Lost_block { addr = a; _ } -> a = addr | _ -> false)
      issues
  in
  Alcotest.(check bool) "lost block detected" true found;
  assert_rendered "ffs lost block" "says is free" (List.map Issue.to_string issues)

let test_ffs_leaked_block () =
  let fs = Ffs_sys.make_sound () in
  (* Mark a block used that nothing references. *)
  let addr =
    match Falloc.alloc_block (F.alloc fs) ~near:0 with
    | Some a -> a
    | None -> Alcotest.fail "no free block to leak"
  in
  let issues = F.fsck fs in
  let found =
    List.exists
      (function Issue.Leaked_block { addr = a } -> a = addr | _ -> false)
      issues
  in
  Alcotest.(check bool) "leaked block detected" true found;
  assert_rendered "ffs leaked block" "referenced by nothing"
    (List.map Issue.to_string issues)

let test_ffs_garbage_slot () =
  let fs, inum = Ffs_sys.clobber_slot (Ffs_sys.make_sound ()) '\xff' in
  let issues = F.fsck fs in
  let found =
    List.exists
      (function Issue.Unreadable { inum = i; _ } -> i = inum | _ -> false)
      issues
  in
  Alcotest.(check bool) "garbage slot reported unreadable" true found;
  assert_rendered "ffs garbage slot" "unreadable" (F.integrity fs)

let suite =
  Lfs_rows.cases "lfs"
  @ [ ("lfs: usage drift", `Quick, test_usage_drift) ]
  @ Ffs_rows.cases "ffs"
  @ [
      ("ffs: lost block", `Quick, test_ffs_lost_block);
      ("ffs: leaked block", `Quick, test_ffs_leaked_block);
      ("ffs: garbage inode slot", `Quick, test_ffs_garbage_slot);
    ]
