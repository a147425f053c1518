include Nanodec_json.Json (* perfbench/replay.ml names Nanodec_serve.Json *)
