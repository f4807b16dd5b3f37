type t =
  | Moves of int
  | Cost of int

let pp ppf = function
  | Moves k -> Format.fprintf ppf "moves<=%d" k
  | Cost b -> Format.fprintf ppf "cost<=%d" b

let spent inst assignment = function
  | Moves _ -> Assignment.moves inst assignment
  | Cost _ -> Assignment.relocation_cost inst assignment

let within inst assignment budget =
  let bound =
    match budget with
    | Moves k -> k
    | Cost b -> b
  in
  spent inst assignment budget <= bound

let limit = function
  | Moves k -> k
  | Cost b -> b
