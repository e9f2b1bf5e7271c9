module Device = Fpga.Device
module Tile = Fpga.Tile

(* [prefix.(k).(c)]: columns of kind [k] in [0, c), kinds indexed
   Clb = 0, Bram = 1, Dsp = 2, so a window count is one subtraction. *)
type t = {
  device : Device.t;
  columns : Tile.kind array;
  prefix : int array array;
}

let kind_index = function Tile.Clb -> 0 | Tile.Bram -> 1 | Tile.Dsp -> 2

(* Spread [count] special columns evenly over [width] slots, nudging right
   when the ideal slot is already taken. *)
let spread columns kind count =
  let width = Array.length columns in
  for i = 0 to count - 1 do
    let ideal = (2 * i + 1) * width / (2 * count) in
    let rec free c =
      if c >= width then free 0
      else if columns.(c) = None then c
      else free (c + 1)
    in
    columns.(free ideal) <- Some kind
  done

let make (device : Device.t) =
  let width = device.clb_cols + device.bram_cols + device.dsp_cols in
  let slots = Array.make width None in
  spread slots Tile.Bram device.bram_cols;
  spread slots Tile.Dsp device.dsp_cols;
  let columns =
    Array.map (function Some kind -> kind | None -> Tile.Clb) slots
  in
  let prefix = Array.init 3 (fun _ -> Array.make (width + 1) 0) in
  Array.iteri
    (fun c kind ->
      let k = kind_index kind in
      for i = 0 to 2 do
        prefix.(i).(c + 1) <- prefix.(i).(c) + if i = k then 1 else 0
      done)
    columns;
  { device; columns; prefix }

let device t = t.device
let rows t = t.device.Device.rows
let width t = Array.length t.columns

let kind_at t c =
  if c < 0 || c >= width t then invalid_arg "Layout.kind_at: out of range";
  t.columns.(c)

let columns_of_kind t kind =
  List.filter (fun c -> t.columns.(c) = kind) (List.init (width t) Fun.id)

let count_in_window t ~first ~width:w kind =
  if first < 0 || w < 0 || first + w > width t then
    invalid_arg "Layout.count_in_window: window out of range";
  let p = t.prefix.(kind_index kind) in
  p.(first + w) - p.(first)

let pp ppf t =
  Array.iter
    (fun kind ->
      Format.pp_print_char ppf
        (match kind with Tile.Clb -> 'C' | Tile.Bram -> 'B' | Tile.Dsp -> 'D'))
    t.columns
