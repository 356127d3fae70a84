(* Path handling, shared error type, and the directory-block codec. *)

module Dir_block = Lfs_vfs.Dir_block
module E = Lfs_vfs.Errors
module Path = Lfs_vfs.Path

let qcheck = QCheck_alcotest.to_alcotest

let test_path_split () =
  Alcotest.(check (list string)) "root" [] (Path.split_exn "/");
  Alcotest.(check (list string)) "simple" [ "a"; "b" ] (Path.split_exn "/a/b");
  Alcotest.(check (list string)) "double slash" [ "a"; "b" ] (Path.split_exn "/a//b");
  Alcotest.(check (list string)) "trailing" [ "a" ] (Path.split_exn "/a/");
  let bad p =
    match Path.split p with
    | Error (E.Einval _) -> ()
    | Ok _ -> Alcotest.failf "accepted %S" p
    | Error e -> Alcotest.failf "wrong error for %S: %s" p (E.to_string e)
  in
  bad "relative";
  bad "";
  bad "/a/../b";
  bad "/a/./b";
  bad ("/" ^ String.make 300 'x')

let test_parent_and_name () =
  (match Path.parent_and_name "/a/b/c" with
  | Ok (parent, name) ->
      Alcotest.(check (list string)) "parent" [ "a"; "b" ] parent;
      Alcotest.(check string) "name" "c" name
  | Error e -> Alcotest.failf "unexpected: %s" (E.to_string e));
  match Path.parent_and_name "/" with
  | Error (E.Einval _) -> ()
  | _ -> Alcotest.fail "root has no parent"

let test_valid_name () =
  Alcotest.(check bool) "ok" true (Path.valid_name "file.txt");
  Alcotest.(check bool) "empty" false (Path.valid_name "");
  Alcotest.(check bool) "dot" false (Path.valid_name ".");
  Alcotest.(check bool) "dotdot" false (Path.valid_name "..");
  Alcotest.(check bool) "slash" false (Path.valid_name "a/b");
  Alcotest.(check bool) "nul" false (Path.valid_name "a\000b");
  Alcotest.(check bool) "max length" true (Path.valid_name (String.make 255 'x'));
  Alcotest.(check bool) "too long" false (Path.valid_name (String.make 256 'x'))

let test_errors_printable () =
  List.iter
    (fun e -> Alcotest.(check bool) "nonempty" true (String.length (E.to_string e) > 0))
    [
      E.Enoent "x"; E.Eexist "x"; E.Enotdir "x"; E.Eisdir "x";
      E.Enotempty "x"; E.Enospc; E.Efbig; E.Einval "x";
    ]

let test_dir_block_roundtrip () =
  let entries = [ ("zebra", 42); ("a", 1); ("file.txt", 65535) ] in
  let block = Dir_block.encode ~block_size:512 entries in
  Alcotest.(check int) "block size" 512 (Bytes.length block);
  Alcotest.(check (list (pair string int))) "roundtrip" entries
    (Dir_block.parse block)

let test_dir_block_fits () =
  let block = Dir_block.encode ~block_size:64 [ ("aaaaaaaaaa", 1) ] in
  Alcotest.(check bool) "fits" true (Dir_block.fits block "bb");
  Alcotest.(check bool) "overflow" false
    (Dir_block.fits block (String.make 50 'b'))

(* Bytes a block with these entries occupies, header included. *)
let used_bytes entries =
  List.fold_left (fun acc (name, _) -> acc + Dir_block.entry_bytes name) 2
    entries

let prop_dir_block =
  let name_gen = QCheck.Gen.(map (fun s -> "n" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_bound 20))) in
  QCheck.Test.make ~name:"dir block roundtrip" ~count:200
    QCheck.(make Gen.(small_list (pair name_gen (int_bound 100000))))
    (fun entries ->
      (* Dedup names as a directory would. *)
      let entries =
        List.fold_left
          (fun acc (n, i) -> if List.mem_assoc n acc then acc else (n, i) :: acc)
          [] entries
      in
      QCheck.assume (used_bytes entries <= 4096);
      Dir_block.parse (Dir_block.encode ~block_size:4096 entries) = entries)

(* The in-place operations against the list reference: parse the block,
   apply the list operation, encode.  Blocks start as valid encodings and
   may then be damaged — an entry count that overruns the block, a name
   length that runs past it, or random byte flips — so that every answer,
   exception and resulting byte must agree with the reference. *)
type damage =
  | Intact
  | Overrun_count
  | Truncate_name of int
  | Flips of (int * char) list

let prop_dir_block_in_place =
  let name_gen =
    QCheck.Gen.(string_size ~gen:(char_range 'a' 'd') (int_range 1 6))
  in
  let damage_gen =
    QCheck.Gen.(
      frequency
        [
          (4, return Intact);
          (1, return Overrun_count);
          (1, map (fun i -> Truncate_name i) nat);
          (2, map (fun l -> Flips l) (list_size (int_range 1 4) (pair nat char)));
        ])
  in
  let print (entries, bs, name, inum, damage) =
    Printf.sprintf "entries=[%s] bs=%d name=%S inum=%d damage=%s"
      (String.concat "; "
         (List.map (fun (n, i) -> Printf.sprintf "%S,%d" n i) entries))
      bs name inum
      (match damage with
      | Intact -> "intact"
      | Overrun_count -> "overrun count"
      | Truncate_name i -> Printf.sprintf "truncate name %d" i
      | Flips l ->
          String.concat ","
            (List.map (fun (p, c) -> Printf.sprintf "%d:%C" p c) l))
  in
  QCheck.Test.make ~name:"dir block in-place ops match parse/encode"
    ~count:500
    QCheck.(
      make ~print
        Gen.(
          map
            (fun ((entries, bs, name), (inum, damage)) ->
              (entries, bs, name, inum, damage))
            (pair
               (triple
                  (list_size (int_bound 8)
                     (pair name_gen (int_bound 0xFFFFFFFF)))
                  (oneofl [ 32; 64; 128; 4096 ])
                  name_gen)
               (pair (int_bound 0xFFFFFFFF) damage_gen))))
    (fun (entries, bs, name, inum, damage) ->
      (* Duplicate names are kept: first-match semantics must agree too. *)
      QCheck.assume (used_bytes entries <= bs);
      let block = Dir_block.encode ~block_size:bs entries in
      (match damage with
      | Intact -> ()
      | Overrun_count -> Bytes.set_uint16_le block 0 0xFFFF
      | Truncate_name i ->
          (* Entry [i]'s name length runs past the end of the block. *)
          let rec off_of j off =
            if j = 0 then off
            else
              off_of (j - 1)
                (off + 6 + Bytes.get_uint16_le block (off + 4))
          in
          if entries <> [] then
            Bytes.set_uint16_le block
              (off_of (i mod List.length entries) 2 + 4)
              bs
      | Flips l ->
          List.iter (fun (p, c) -> Bytes.set block (p mod bs) c) l);
      let result f =
        match f () with v -> Ok v | exception Lfs_util.Codec.Error _ -> Error ()
      in
      let reference = result (fun () -> Dir_block.parse block) in
      let edited op =
        let b = Bytes.copy block in
        result (fun () ->
            let r = op b in
            (r, b))
      in
      let encoded entries = Dir_block.encode ~block_size:bs entries in
      let expect_find = Result.map (List.assoc_opt name) reference in
      let expect_fits =
        Result.map
          (fun l -> used_bytes l + Dir_block.entry_bytes name <= bs)
          reference
      in
      let expect_remove =
        Result.map
          (fun l -> (List.mem_assoc name l, encoded (List.remove_assoc name l)))
          reference
      in
      let got_remove = edited (fun b -> Dir_block.remove b name) in
      let insert_ok =
        match expect_fits with
        | Ok true ->
            edited (fun b -> Dir_block.insert_front b name inum)
            = Result.map (fun l -> ((), encoded ((name, inum) :: l))) reference
        | Ok false | Error () ->
            edited (fun b -> Dir_block.insert_front b name inum) = Error ()
      in
      (match damage with
      | Intact -> reference = Ok entries
      | Overrun_count -> reference = Error ()
      | Truncate_name _ -> entries = [] || reference = Error ()
      | Flips _ -> true)
      && result (fun () -> Dir_block.find block name) = expect_find
      && result (fun () -> Dir_block.fits block name) = expect_fits
      && (match (got_remove, expect_remove) with
         | Ok (found, b), Ok (found', b') ->
             (* A miss leaves the block untouched: it is never written. *)
             found = found' && Bytes.equal b (if found then b' else block)
         | Error (), Error () -> true
         | Ok _, Error () | Error (), Ok _ -> false)
      && insert_ok)

let suite =
  [
    Alcotest.test_case "path split" `Quick test_path_split;
    Alcotest.test_case "parent and name" `Quick test_parent_and_name;
    Alcotest.test_case "valid names" `Quick test_valid_name;
    Alcotest.test_case "errors printable" `Quick test_errors_printable;
    Alcotest.test_case "dir block roundtrip" `Quick test_dir_block_roundtrip;
    Alcotest.test_case "dir block fits" `Quick test_dir_block_fits;
    qcheck prop_dir_block;
    qcheck prop_dir_block_in_place;
  ]
