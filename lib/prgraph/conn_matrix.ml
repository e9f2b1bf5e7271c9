module Design = Prdesign.Design

type t = {
  design : Design.t;
  masks : Cfgset.t array;  (* per mode: the configurations using it *)
}

let make design =
  let configs = Design.configuration_count design in
  let masks =
    Array.init (Design.mode_count design) (fun _ -> Cfgset.create configs)
  in
  for c = 0 to configs - 1 do
    List.iter (fun j -> Cfgset.add masks.(j) c) (Design.config_mode_ids design c)
  done;
  { design; masks }

let configurations t = Design.configuration_count t.design
let modes t = Array.length t.masks

let check_config t i =
  if i < 0 || i >= configurations t then
    invalid_arg "Conn_matrix: configuration index out of range"

let check_mode t j =
  if j < 0 || j >= modes t then
    invalid_arg "Conn_matrix: mode index out of range"

let mem t ~config ~mode =
  check_config t config;
  check_mode t mode;
  Cfgset.mem t.masks.(mode) config

let node_weight t j =
  check_mode t j;
  Cfgset.popcount t.masks.(j)

let edge_weight t i j =
  check_mode t i;
  check_mode t j;
  Cfgset.popcount (Cfgset.inter t.masks.(i) t.masks.(j))

let support t mode_list =
  List.iter (check_mode t) mode_list;
  match mode_list with
  | [] -> configurations t
  | j :: rest ->
    Cfgset.popcount
      (List.fold_left (fun acc k -> Cfgset.inter acc t.masks.(k)) t.masks.(j)
         rest)

let supported t mode_list = support t mode_list > 0

let config_modes t i =
  check_config t i;
  List.filter (fun j -> Cfgset.mem t.masks.(j) i) (List.init (modes t) Fun.id)

let active_modes t =
  List.filter
    (fun j -> Cfgset.popcount t.masks.(j) > 0)
    (List.init (modes t) Fun.id)
