type t =
  | No_deflection
  | Hot_potato
  | Any_valid_port
  | Not_input_port

let all = [ No_deflection; Hot_potato; Any_valid_port; Not_input_port ]

let to_string = function
  | No_deflection -> "none"
  | Hot_potato -> "hp"
  | Any_valid_port -> "avp"
  | Not_input_port -> "nip"

let of_string = function
  | "none" -> Some No_deflection
  | "hp" -> Some Hot_potato
  | "avp" -> Some Any_valid_port
  | "nip" -> Some Not_input_port
  | _ -> None

(* The choice is one immediate int so the packet path never touches the
   minor heap: a Take is the port itself, a Draw excluding port [e] (-1:
   none) is [-2 - e], and Stuck is [min_int], below every Draw. *)
let stuck = min_int
let draw_excluding e = -2 - e
let excluded c = -2 - c

let any_live live ~exclude =
  let n = Array.length live in
  let rec go p = p < n && ((live.(p) && p <> exclude) || go (p + 1)) in
  go 0

let draw_or_stuck live ~exclude =
  if any_live live ~exclude then draw_excluding exclude else stuck

let step policy ~computed:c ~in_port ~deflected ~live =
  let usable = c >= 0 && c < Array.length live && live.(c) in
  match policy with
  | No_deflection -> if usable then c else stuck
  | Hot_potato ->
    if usable && not deflected then c else draw_or_stuck live ~exclude:(-1)
  | Any_valid_port -> if usable then c else draw_or_stuck live ~exclude:(-1)
  | Not_input_port ->
    if usable && c <> in_port then c
    else if any_live live ~exclude:in_port then draw_excluding in_port
    else
      (* Degree-one dead end: the paper's Algorithm 1 would spin forever;
         the packet goes back where it came from.  No port but the input
         port is live, so this is a draw over that one port, or Stuck. *)
      draw_or_stuck live ~exclude:(-1)

(* Every policy but No_deflection marks the packet deflected whenever the
   computed port is not taken, a drop included. *)
let deflects policy c = c < 0 && policy <> No_deflection

(* Count the candidates, draw one index, select it in ascending port order:
   no candidate list.  [Util.Prng.int _ 1] consumes no draw, so a singleton
   candidate set leaves the stream untouched. *)
let draw ~live ~exclude rng =
  let n = Array.length live in
  let rec count p acc =
    if p >= n then acc
    else count (p + 1) (if live.(p) && p <> exclude then acc + 1 else acc)
  in
  let rec nth p remaining =
    if live.(p) && p <> exclude then
      if remaining = 0 then p else nth (p + 1) (remaining - 1)
    else nth (p + 1) remaining
  in
  nth 0 (Util.Prng.int rng (count 0 0))
