(* A pure reference file system: the specification both LFS and FFS are
   tested against.  Inside, paths are component lists.  Regular files are
   ids into a content table so hard links alias naturally. *)

module Op = Lfs_workload.Op

module M = Map.Make (struct
  type t = string list

  let compare = compare
end)

type node = File of int | Dir

type t = {
  mutable nodes : node M.t;
  contents : (int, bytes) Hashtbl.t;
  mutable next_id : int;
}

let create () =
  { nodes = M.add [] Dir M.empty; contents = Hashtbl.create 64; next_id = 0 }

let ok = Ok Op.Done
let failed = Error ()

let parent path = List.filteri (fun i _ -> i < List.length path - 1) path

let parent_is_dir t path =
  match M.find_opt (parent path) t.nodes with Some Dir -> true | _ -> false

let exists t path = M.mem path t.nodes

let children t path =
  M.fold
    (fun p _ acc ->
      if List.length p = List.length path + 1 && parent p = path then
        List.nth p (List.length p - 1) :: acc
      else acc)
    t.nodes []

let nlink t id =
  M.fold
    (fun _ node acc -> match node with File i when i = id -> acc + 1 | _ -> acc)
    t.nodes 0

let mk_node t path node =
  if path = [] || exists t path || not (parent_is_dir t path) then failed
  else begin
    t.nodes <- M.add path node t.nodes;
    ok
  end

let create_file t path =
  let id = t.next_id in
  let r = mk_node t path (File id) in
  if Result.is_ok r then begin
    t.next_id <- id + 1;
    Hashtbl.replace t.contents id Bytes.empty
  end;
  r

let delete t path =
  match M.find_opt path t.nodes with
  | None -> failed
  | Some Dir when path = [] || children t path <> [] -> failed
  | Some Dir ->
      t.nodes <- M.remove path t.nodes;
      ok
  | Some (File id) ->
      t.nodes <- M.remove path t.nodes;
      if nlink t id = 0 then Hashtbl.remove t.contents id;
      ok

let file_id t path =
  match M.find_opt path t.nodes with Some (File id) -> Some id | _ -> None

let contents t path = Option.map (Hashtbl.find t.contents) (file_id t path)

let write t path ~off data =
  match file_id t path with
  | None -> failed
  | Some id ->
      let old = Hashtbl.find t.contents id in
      let len = max (Bytes.length old) (off + Bytes.length data) in
      let b = Bytes.make len '\000' in
      Bytes.blit old 0 b 0 (Bytes.length old);
      Bytes.blit data 0 b off (Bytes.length data);
      Hashtbl.replace t.contents id b;
      ok

let read t path ~off ~len =
  match contents t path with
  | None -> failed
  | Some b ->
      if off >= Bytes.length b then Ok (Op.Data Bytes.empty)
      else Ok (Op.Data (Bytes.sub b off (min len (Bytes.length b - off))))

let truncate t path ~size =
  match file_id t path with
  | None -> failed
  | Some id ->
      let b = Hashtbl.find t.contents id in
      let b' = Bytes.make size '\000' in
      Bytes.blit b 0 b' 0 (min size (Bytes.length b));
      Hashtbl.replace t.contents id b';
      ok

let is_prefix a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && go a' b'
    | _ :: _, [] -> false
  in
  go a b

let rename t src dst =
  if
    src = [] || dst = []
    || (not (exists t src))
    || exists t dst
    || (not (parent_is_dir t dst))
    || is_prefix src dst
  then failed
  else begin
    (* Move the node and, for directories, the whole subtree. *)
    let moved =
      M.fold
        (fun p node acc ->
          if is_prefix src p then
            (dst @ List.filteri (fun i _ -> i >= List.length src) p, node) :: acc
          else acc)
        t.nodes []
    in
    t.nodes <- M.filter (fun p _ -> not (is_prefix src p)) t.nodes;
    List.iter (fun (p, node) -> t.nodes <- M.add p node t.nodes) moved;
    ok
  end

let link t src dst =
  match file_id t src with
  | None -> failed (* absent, or a directory *)
  | Some id ->
      if dst = [] || exists t dst || not (parent_is_dir t dst) then failed
      else begin
        t.nodes <- M.add dst (File id) t.nodes;
        ok
      end

let readdir t path =
  match M.find_opt path t.nodes with
  | Some Dir -> Ok (Op.Names (List.sort String.compare (children t path)))
  | Some (File _) | None -> failed

let split path = Result.map_error ignore (Lfs_vfs.Path.split path)

let apply t op =
  let on path f = Result.bind (split path) f in
  let data ~seed len = Lfs_workload.Driver.content ~seed len in
  match op with
  | Op.Mkdir p -> on p (fun p -> mk_node t p Dir)
  | Op.Create p -> on p (create_file t)
  | Op.Write { path; off; seed; len } ->
      on path (fun p -> write t p ~off (data ~seed len))
  | Op.Append { path; seed; len } ->
      on path (fun p ->
          match contents t p with
          | None -> failed
          | Some b -> write t p ~off:(Bytes.length b) (data ~seed len))
  | Op.Read { path; range } ->
      let off, len = Option.value range ~default:(0, max_int) in
      on path (fun p -> read t p ~off ~len)
  | Op.Truncate { path; size } -> on path (fun p -> truncate t p ~size)
  | Op.Rename { src; dst } -> on src (fun src -> on dst (rename t src))
  | Op.Link { src; dst } -> on src (fun src -> on dst (link t src))
  | Op.Readdir p -> on p (readdir t)
  | Op.Delete p -> on p (delete t)
  | Op.Sync | Op.Flush -> ok

let path_string p = "/" ^ String.concat "/" p

let all_files t =
  M.fold
    (fun p node acc ->
      match node with
      | File id -> (path_string p, Hashtbl.find t.contents id) :: acc
      | Dir -> acc)
    t.nodes []

let all_dirs t =
  M.fold
    (fun p node acc -> match node with Dir -> path_string p :: acc | File _ -> acc)
    t.nodes []

let file_id t path =
  match split path with Ok p -> file_id t p | Error () -> None

let nlink_of_path t path =
  match file_id t path with Some id -> nlink t id | None -> 0
