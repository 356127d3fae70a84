let recompute_usage (st : State.t) =
  let layout = st.layout in
  let bs = layout.Layout.block_size in
  let live = Array.make layout.Layout.nsegments 0 in
  (* A wild address is [fsck]'s to report. *)
  let add addr bytes =
    if Layout.in_segment_area layout addr then begin
      let seg = Layout.segment_of_block layout addr in
      live.(seg) <- live.(seg) + bytes
    end
  in
  let add_block _role _index addr = add addr bs in
  for inum = 1 to Imap.max_files st.imap - 1 do
    if Imap.is_allocated st.imap inum then begin
      (match Imap.location st.imap inum with
      | Some (addr, _slot) -> add addr Layout.inode_bytes
      | None -> ());
      (* An inode that does not load is [fsck]'s to report too. *)
      match Block_file.load st inum with
      | Error _ -> ()
      | Ok e -> Block_file.iter_blocks st e add_block
    end
  done;
  Array.iter (fun addr -> add addr bs) st.imap_block_addr;
  Array.iter (fun addr -> add addr bs) st.usage_block_addr;
  live

let usage_drift (st : State.t) =
  let truth = recompute_usage st in
  let drift = ref [] in
  for seg = Seg_usage.nsegments st.usage - 1 downto 0 do
    let recorded = Seg_usage.live_bytes st.usage seg in
    if recorded <> truth.(seg) then drift := (seg, recorded, truth.(seg)) :: !drift
  done;
  !drift

(* LFS's own owners, besides its files' blocks: the inode blocks (one
   holds many inodes, so each is entered once), the inode-map blocks and
   the usage-array blocks. *)
let metadata_owners (st : State.t) reference =
  let inode_blocks = Hashtbl.create 64 in
  for inum = 1 to Imap.max_files st.imap - 1 do
    if Imap.is_allocated st.imap inum then
      match Imap.location st.imap inum with
      | Some (addr, _) ->
          if not (Hashtbl.mem inode_blocks addr) then begin
            Hashtbl.replace inode_blocks addr ();
            reference ~owner:"inode block" addr
          end
      | None -> ()
  done;
  Array.iteri
    (fun idx addr -> reference ~owner:(Printf.sprintf "imap block %d" idx) addr)
    st.imap_block_addr;
  Array.iteri
    (fun idx addr -> reference ~owner:(Printf.sprintf "usage block %d" idx) addr)
    st.usage_block_addr

let fsck (st : State.t) =
  Block_file.fsck ~extra_owners:(metadata_owners st) st

(* --- Checkpoint/recovery cross-validation ---------------------------- *)

(* Compare two mounted states by their user-visible trees: same names,
   kinds, link counts, sizes and bytes at every path.  [expected] is the
   surviving pre-crash state (or a freshly checkpointed twin); [recovered]
   is what mount-time recovery reconstructed.  Divergence strings name
   the path so a failing recovery test points at the lost update. *)
let recovery_divergence ~(expected : State.t) ~(recovered : State.t) =
  let diffs = ref [] in
  let diff fmt = Printf.ksprintf (fun s -> diffs := s :: !diffs) fmt in
  let ino_of st inum = (Inode_store.find st inum).State.ino in
  let rec walk path a_inum b_inum =
    let a = ino_of expected a_inum and b = ino_of recovered b_inum in
    if a.Inode.kind <> b.Inode.kind then
      diff "%s: kind differs" path
    else begin
      if a.Inode.nlink <> b.Inode.nlink then
        diff "%s: nlink %d, recovered %d" path a.Inode.nlink b.Inode.nlink;
      match a.Inode.kind with
      | Lfs_vfs.Fs_intf.Regular ->
          if a.Inode.size <> b.Inode.size then
            diff "%s: size %d, recovered %d" path a.Inode.size b.Inode.size
          else begin
            let data st inum =
              File_io.read st (Inode_store.find st inum) ~off:0
                ~len:a.Inode.size
            in
            if not (Bytes.equal (data expected a_inum) (data recovered b_inum))
            then diff "%s: content differs" path
          end
      | Lfs_vfs.Fs_intf.Directory ->
          let sorted st dir =
            List.sort compare (Block_file.entries st ~dir)
          in
          let ea = sorted expected a_inum and eb = sorted recovered b_inum in
          let names l = List.map fst l in
          List.iter
            (fun n ->
              if not (List.mem n (names eb)) then
                diff "%s/%s: missing after recovery" path n)
            (names ea);
          List.iter
            (fun n ->
              if not (List.mem n (names ea)) then
                diff "%s/%s: extra entry after recovery" path n)
            (names eb);
          List.iter
            (fun (n, a_child) ->
              match List.assoc_opt n eb with
              | Some b_child -> walk (path ^ "/" ^ n) a_child b_child
              | None -> ())
            ea
    end
  in
  walk "" State.root_inum State.root_inum;
  List.rev !diffs
