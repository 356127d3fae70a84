(* expect: clean *)
(* [Uses_shared.fill] resolves through the include into the functor
   body, where the call through the parameter is opaque. *)
let load d = Uses_shared.fill d
