(** Platform assembly: the full benchmark system of §7.1.

    Builds the kernel image with all nine drivers linked in, instantiates
    the nine device hardware models on a fresh SoC, and records the PM
    registration order (resume order; suspend walks it backwards). *)

open Tk_kernel

(* hardware latencies, scaled (see Device): name, slot, suspend_us,
   resume_us, extras *)
type spec = {
  s_name : string;
  s_index : int;
  s_susp : int;
  s_res : int;
  s_cfg : int;
  s_fw : int;
}

let specs =
  [ { s_name = "sd"; s_index = 0; s_susp = 80; s_res = 150; s_cfg = 10; s_fw = 0 };
    { s_name = "flash"; s_index = 1; s_susp = 60; s_res = 120; s_cfg = 10; s_fw = 0 };
    { s_name = "mmc"; s_index = 2; s_susp = 40; s_res = 100; s_cfg = 10; s_fw = 0 };
    { s_name = "usb"; s_index = 3; s_susp = 50; s_res = 150; s_cfg = 10; s_fw = 0 };
    { s_name = "reg"; s_index = 4; s_susp = 30; s_res = 30; s_cfg = 12; s_fw = 0 };
    { s_name = "kb"; s_index = 5; s_susp = 20; s_res = 40; s_cfg = 10; s_fw = 0 };
    { s_name = "cam"; s_index = 6; s_susp = 30; s_res = 80; s_cfg = 10; s_fw = 0 };
    { s_name = "bt"; s_index = 7; s_susp = 25; s_res = 60; s_cfg = 10; s_fw = 0 };
    { s_name = "wifi"; s_index = 8; s_susp = 50; s_res = 40; s_cfg = 10;
      s_fw = Driver_wifi.fw_words } ]

(** PM-core registration order: parents before children, so resume runs
    regulator -> controllers -> functions; suspend is the reverse. The
    dpm index of a device is its position here. *)
let registration_order =
  [ "reg"; "mmc"; "usb"; "sd"; "flash"; "kb"; "cam"; "bt"; "wifi" ]

(** Human name per dpm index (Figure 6 labels). *)
let dpm_label i = List.nth registration_order i

type t = {
  soc : Tk_machine.Soc.t;
  built : Image.built;
  devices : (string * Device.t) list;
}

let driver_frags (lay : Layout.t) =
  let dev_specific =
    Tk_kcc.Codegen.compile_all
      (Driver_storage.funcs lay @ Driver_usb_devs.funcs lay
      @ Driver_power.funcs lay @ Driver_wifi.funcs lay)
  in
  let libs = Tk_kcc.Codegen.compile_all (Dlib_src.funcs lay) in
  List.map (fun f -> (f, Image.Device_specific)) dev_specific
  @ List.map (fun f -> (f, Image.Driver_lib)) libs

let driver_data (lay : Layout.t) =
  Driver_storage.data lay @ Driver_usb_devs.data lay @ Driver_power.data lay
  @ Driver_wifi.data lay @ Dlib_src.data lay

(** [build_image ?layout ()] — the kernel + drivers guest binary, without
    hardware. *)
let build_image ?(layout = Layout.v4_4) () =
  Image.build ~layout ~extra_frags:(driver_frags layout)
    ~extra_data:(driver_data layout) ()

(** [create ?layout ?built ?m3_cache_kb ()] — SoC + devices + loaded
    image. [built] reuses an already-compiled image (it is immutable
    once built: the words are {e copied} into each platform's DRAM) —
    the fleet layer builds one image and loads it into every shard
    world instead of recompiling per instance. *)
let create ?(layout = Layout.v4_4) ?built ?m3_cache_kb () =
  let soc = Tk_machine.Soc.create ?m3_cache_kb () in
  let devices =
    List.map
      (fun s ->
        ( s.s_name,
          Device.create soc ~name:s.s_name ~index:s.s_index
            ~suspend_us:s.s_susp ~resume_us:s.s_res ~cfg_us:s.s_cfg
            ~fw_words:s.s_fw () ))
      specs
  in
  let built =
    match built with Some b -> b | None -> build_image ~layout ()
  in
  Tk_machine.Mem.load_image soc.Tk_machine.Soc.mem built.Image.image;
  (* telemetry gauges: one power-rail state column per device (0/1), in
     registration order so the series columns match Figure 6's labels *)
  List.iter
    (fun name ->
      let d = List.assoc name devices in
      Tk_stats.Substrate.gauge
        soc.Tk_machine.Soc.recorder.Tk_stats.Recorder.sub
        ~readers:Tk_stats.Substrate.sampler_bit ("pw_" ^ name)
        (fun () -> if d.Device.power_on then 1 else 0))
    registration_order;
  { soc; built; devices }

let device t name = List.assoc name t.devices

(** Guest init calls, in registration order. *)
let init_calls = List.map (fun n -> n ^ "_init") registration_order
