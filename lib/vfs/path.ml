let max_name_len = 255

let valid_name name =
  String.length name > 0
  && String.length name <= max_name_len
  && name <> "."
  && name <> ".."
  && not (String.contains name '/')
  && not (String.contains name '\000')

let split path =
  if String.length path = 0 || path.[0] <> '/' then
    Error (Errors.Einval (Printf.sprintf "path must be absolute: %S" path))
  else begin
    let components =
      String.split_on_char '/' path |> List.filter (fun c -> c <> "")
    in
    (* Reject genuinely empty interior components ("//" is tolerated as in
       POSIX, but "a//b" collapses the same way, so only name validity
       remains to check). *)
    if List.for_all valid_name components then Ok components
    else Error (Errors.Einval (Printf.sprintf "invalid path component in %S" path))
  end

let split_exn path =
  match split path with Ok c -> c | Error e -> Errors.raise_ e

let parent_and_name path =
  match split path with
  | Error _ as e -> e
  | Ok [] -> Error (Errors.Einval "operation not valid on the root directory")
  | Ok components ->
      let rec last_split acc = function
        | [ name ] -> (List.rev acc, name)
        | c :: rest -> last_split (c :: acc) rest
        | [] -> assert false
      in
      Ok (last_split [] components)

let parent_and_name_exn path =
  match parent_and_name path with Ok v -> v | Error e -> Errors.raise_ e
