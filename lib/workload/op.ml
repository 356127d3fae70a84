module Fs_intf = Lfs_vfs.Fs_intf
module Errors = Lfs_vfs.Errors

type t =
  | Mkdir of string
  | Create of string
  | Write of { path : string; off : int; seed : int; len : int }
  | Append of { path : string; seed : int; len : int }
  | Read of { path : string; range : (int * int) option }
  | Truncate of { path : string; size : int }
  | Rename of { src : string; dst : string }
  | Link of { src : string; dst : string }
  | Readdir of string
  | Delete of string
  | Sync
  | Flush

(* The content seed of a write token that names none — what
   [lfstool trace write:P:N] has always written. *)
let default_seed = 7

let to_string = function
  | Mkdir p -> "mkdir:" ^ p
  | Create p -> "create:" ^ p
  | Write { path; off; seed; len } ->
      Printf.sprintf "write:%s:%d:%d:%d" path len seed off
  | Append { path; seed; len } -> Printf.sprintf "append:%s:%d:%d" path len seed
  | Read { path; range = None } -> "read:" ^ path
  | Read { path; range = Some (off, len) } ->
      Printf.sprintf "read:%s:%d:%d" path len off
  | Truncate { path; size } -> Printf.sprintf "truncate:%s:%d" path size
  | Rename { src; dst } -> Printf.sprintf "rename:%s:%s" src dst
  | Link { src; dst } -> Printf.sprintf "link:%s:%s" src dst
  | Readdir p -> "readdir:" ^ p
  | Delete p -> "delete:" ^ p
  | Sync -> "sync"
  | Flush -> "flush"

let grammar =
  "mkdir:P create:P write:P:LEN[:SEED[:OFF]] append:P:LEN[:SEED] \
   read:P[:LEN[:OFF]] truncate:P:SIZE rename:P:P link:P:P readdir:P \
   delete:P sync flush"

let of_string tok =
  let ( let* ) = Option.bind in
  let size s =
    match int_of_string_opt s with Some n when n >= 0 -> Some n | _ -> None
  in
  (* A missing trailing field takes its default. *)
  let opt default parse = function
    | [] -> Some (default, [])
    | x :: rest -> Option.map (fun v -> (v, rest)) (parse x)
  in
  let op =
    match String.split_on_char ':' tok with
    | [ "mkdir"; p ] -> Some (Mkdir p)
    | [ "create"; p ] -> Some (Create p)
    | "write" :: path :: len :: rest -> (
        let* len = size len in
        let* seed, rest = opt default_seed int_of_string_opt rest in
        match opt 0 size rest with
        | Some (off, []) -> Some (Write { path; off; seed; len })
        | _ -> None)
    | "append" :: path :: len :: rest -> (
        let* len = size len in
        match opt default_seed int_of_string_opt rest with
        | Some (seed, []) -> Some (Append { path; seed; len })
        | _ -> None)
    | [ "read"; path ] -> Some (Read { path; range = None })
    | "read" :: path :: len :: rest -> (
        let* len = size len in
        match opt 0 size rest with
        | Some (off, []) -> Some (Read { path; range = Some (off, len) })
        | _ -> None)
    | [ "truncate"; path; n ] ->
        let* size = size n in
        Some (Truncate { path; size })
    | [ "rename"; src; dst ] -> Some (Rename { src; dst })
    | [ "link"; src; dst ] -> Some (Link { src; dst })
    | [ "readdir"; p ] -> Some (Readdir p)
    | [ "delete"; p ] -> Some (Delete p)
    | [ "sync" ] -> Some Sync
    | [ "flush" ] -> Some Flush
    | _ -> None
  in
  Option.to_result ~none:(Printf.sprintf "bad op %S (want %s)" tok grammar) op

let of_lines text =
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match String.trim line with
        | "" -> go (n + 1) acc rest
        | tok -> (
            match of_string tok with
            | Ok op -> go (n + 1) (op :: acc) rest
            | Error e -> Error (Printf.sprintf "line %d: %s" n e)))
  in
  go 1 [] (String.split_on_char '\n' text)

type reply = Done | Data of bytes | Names of string list

let run (Fs_intf.Instance ((module F), fs)) op =
  let done_ r = Result.map (fun () -> Done) r in
  let data r = Result.map (fun b -> Data b) r in
  match op with
  | Mkdir p -> done_ (F.mkdir fs p)
  | Create p -> done_ (F.create fs p)
  | Write { path; off; seed; len } ->
      done_ (F.write fs path ~off (Driver.content ~seed len))
  | Append { path; seed; len } ->
      Result.bind (F.stat fs path) (fun st ->
          done_
            (F.write fs path ~off:st.Fs_intf.size (Driver.content ~seed len)))
  | Read { path; range = Some (off, len) } -> data (F.read fs path ~off ~len)
  | Read { path; range = None } ->
      Result.bind (F.stat fs path) (fun st ->
          data (F.read fs path ~off:0 ~len:st.Fs_intf.size))
  | Truncate { path; size } -> done_ (F.truncate fs path ~size)
  | Rename { src; dst } -> done_ (F.rename fs src dst)
  | Link { src; dst } -> done_ (F.link fs src dst)
  | Readdir p -> Result.map (fun l -> Names l) (F.readdir fs p)
  | Delete p -> done_ (F.delete fs p)
  (* [sync] and [flush_caches] return unit, yet a full device can still
     surface from them as a raised [Errors.Error]. *)
  | Sync -> Errors.wrap (fun () -> F.sync fs; Done)
  | Flush -> Errors.wrap (fun () -> F.flush_caches fs; Done)

let apply inst op = Driver.ok (to_string op) (run inst op)
