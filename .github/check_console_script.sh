#!/bin/sh
# Checks the installed `reviewgraph` console script: it starts, its CLI
# module imports no HTTP stack, it passes its gradient check, and it keeps
# the exit-code contract for bad inputs, each case ending in an error line
# and no traceback. Run it from any directory after `pip install .`; it
# writes its inputs to a fresh temporary directory.
set -eu

reviewgraph --help
# the HTTP stack is imported only when a request goes to an HTTP endpoint
python3 -c 'import sys, reviewgraph.cli; sys.exit(sorted({"requests", "urllib3"} & set(sys.modules)) or 0)'
reviewgraph --seed 0 gradcheck

cd "$(mktemp -d)"
# a transcript path that is a directory
printf '%s\n' '{"paper_id": "d0", "split": "train", "label": "accept", "paths": {"paper": "d0.json", "transcript": "d0.transcript"}}' > m.jsonl
printf '%s\n' '{"paper_id": "d0", "title": "A title", "body": "A body."}' > d0.json
mkdir -p d0.transcript
# a paper w0 through the five stages on the mock endpoint
printf '%s\n' '{"paper_id": "w0", "split": "train", "label": "accept", "paths": {"paper": "d0.json", "transcript": "w0.transcript.json", "triples": "w0.triples.json", "dims": "w0.dims.json", "embeddings": "w0.emb", "graph": "w0.graph.json"}}' > w.jsonl
for stage in simulate extract classify embed build-graph; do
  reviewgraph "$stage" w.jsonl
done
# w0's triples with one element damaged, as no model reply is ever written
python3 -c '
import json
doc = json.load(open("w0.triples.json"))
doc["Reviewer_Author_Relations"][0] = "garbage"
json.dump(doc, open("x0.triples.json", "w"))
'
printf '%s\n' '{"paper_id": "x0", "split": "train", "label": "accept", "paths": {"transcript": "w0.transcript.json", "triples": "x0.triples.json", "dims": "w0.dims.json", "graph": "x0.graph.json"}}' > x.jsonl
# binary graph files of the five-node skeleton: d0 cut off inside its edge
# rows, before its block of 32-byte node keys, as an interrupted write leaves
# it; l0 whole; g0 with a header whose graph_id is a number; v0 in the layout
# of version 1, which had no key block
python3 -c '
import json
from reviewgraph.graph import assemble, graph_to_bytes, skeleton
data = graph_to_bytes(assemble("x", *skeleton("A title"), "accept"))
end = 12 + int.from_bytes(data[8:12], "little")
header = json.loads(data[12:end])
keys_at = len(data) - 32 * header["num_nodes"]
numbered = json.dumps({**header, "graph_id": 5}).encode()
for name, blob in (("d0", data[:keys_at - 5]), ("l0", data),
                   ("g0", data[:8] + len(numbered).to_bytes(4, "little") + numbered + data[end:]),
                   ("v0", data[:6] + b"1" + data[7:keys_at])):
    open(name + ".graph.json", "wb").write(blob)
'
printf '%s\n' '{"paper_id": "d0", "split": "train", "label": "accept", "paths": {"graph": "d0.graph.json", "embeddings": "d0.emb"}}' > torn.jsonl
# a graph file of the older row form, one object per node and per edge; this
# manifest and the next two also name w0's inputs of the stage to rerun
printf '%s\n' '{"paper_id": "r0", "split": "train", "label": "accept", "paths": {"graph": "r0.graph.json", "embeddings": "r0.emb", "transcript": "w0.transcript.json", "triples": "w0.triples.json", "dims": "w0.dims.json"}}' > rows.jsonl
printf '%s\n' '{"edges": [{"dst": 1, "inverse": false, "relation": "has_aspect", "src": 0}], "graph_id": "r0", "label": "accept", "nodes": [{"id": 0, "text": "A title", "type": "title"}, {"id": 1, "text": "Clarity", "type": "evaluation_dimension"}]}' > r0.graph.json
# the graph file v0 of version 1
printf '%s\n' '{"paper_id": "v0", "split": "train", "label": "accept", "paths": {"graph": "v0.graph.json", "embeddings": "v0.emb", "transcript": "w0.transcript.json", "triples": "w0.triples.json", "dims": "w0.dims.json"}}' > v1.jsonl
# the whole graph l0 beside an embedding cache of the older JSON-lines form
printf '%s\n' '{"paper_id": "l0", "split": "train", "label": "accept", "paths": {"graph": "l0.graph.json", "embeddings": "l0.emb", "transcript": "w0.transcript.json", "triples": "w0.triples.json"}}' > lines.jsonl
printf '%s\n' '{"dim": 2, "sha256": "0000000000000000000000000000000000000000000000000000000000000000", "vector": [0.5, 0.5]}' > l0.emb
# a transcript of the older form, a list of debate stages, made of w0's
printf '%s\n' '{"paper_id": "s0", "split": "train", "label": "accept", "paths": {"paper": "d0.json", "transcript": "s0.transcript.json", "triples": "s0.triples.json"}}' > stages.jsonl
python3 -c '
import json
doc = json.load(open("w0.transcript.json"))
def stage(name, roles, turns):
    return {"stage": name, "messages": [{"role": r, "content": t, "attachments": []}
                                        for r, t in zip(roles, turns)]}
reviewers = ("reviewer_1", "reviewer_2", "reviewer_3")
stages = [stage("initial_review", reviewers, doc["reviews"]),
          stage("author_rebuttal", ["author"], [doc["rebuttal"]]),
          stage("re_evaluation", reviewers, doc["re_evaluations"]),
          stage("meta_review", ["senior_reviewer"], [doc["meta_review"]])]
json.dump({"paper_id": "s0", "title": doc["title"], "stages": stages},
          open("s0.transcript.json", "w"))
'
# train and val papers over the graph g0, whose graph_id is a number, with a
# binary embedding cache of its five texts
printf '%s\n' '{"paper_id": "g0", "split": "train", "label": "accept", "paths": {"graph": "g0.graph.json", "embeddings": "g0.emb"}}' \
  '{"paper_id": "g1", "split": "val", "label": "reject", "paths": {"graph": "g0.graph.json", "embeddings": "g0.emb"}}' > gid.jsonl
python3 -c 'from reviewgraph.graph import skeleton; from reviewgraph.orchestration import EmbeddingCache as C; c = C("g0.emb"); [c.put(n.text, [0.5] * 64) for n in skeleton("A title")[0]]'
# a run config and a manifest nested too deeply to parse
python3 -c 'import sys; sys.stdout.write("[" * 200000)' > deep.json
cp deep.json deep.jsonl
# a run config whose endpoint timeout is outside its domain
printf '%s\n' '{"endpoint": {"timeout": 0}}' > t0.json
# a run config with a misspelled section, and one of an HTTP endpoint with no URL
printf '%s\n' '{"modle": {"hidden_dim": 8}}' > modle.json
printf '%s\n' '{"endpoint": {"mock": false}}' > nourl.json
# a checkpoint file with no checkpoint header
printf 'XXXX' > bad.rvgc
# a checkpoint whose manifest is nested too deeply to parse: the magic, its
# length as a little-endian uint32, then the manifest
python3 -c 'import struct, sys; sys.stdout.buffer.write(b"RVGC" + struct.pack("<I", 200000) + b"[" * 200000)' > deep.rvgc
# a paper file that is a JSON list, and a manifest whose transcript path holds
# a NUL character, which no file system takes
printf '%s\n' '{"paper_id": "n0", "split": "train", "label": "accept", "paths": {"paper": "n0.json", "transcript": "n0.transcript.json"}}' > list.jsonl
printf '%s\n' '[{"paper_id": "n0", "title": "A title", "body": "A body."}]' > n0.json
printf '%s\n' '{"paper_id": "n0", "split": "train", "label": "accept", "paths": {"paper": "d0.json", "transcript": "n0\u0000.json"}}' > nul.jsonl
# a checkpoint in the form written before the model config held the
# ablation: the ablation beside the model config, whose homogeneous and
# num_classes stood in its place; it must be retrained
python3 -c '
import json, struct
from reviewgraph.model import ModelConfig, init_params
from reviewgraph.training import Checkpoint, TrainConfig, save_checkpoint
config = ModelConfig(input_dim=64, hidden_dim=8, num_heads=2, num_layers=1, ffn_hidden=8)
save_checkpoint(Checkpoint(1, config, TrainConfig(), 1, 0.5, init_params(config, 0)), "old.rvgc")
blob = open("old.rvgc", "rb").read()
(length,) = struct.unpack("<I", blob[4:8])
manifest = json.loads(blob[8:8 + length])
manifest["ablation"] = manifest["model_config"].pop("ablation")
manifest["model_config"].update(homogeneous=False, num_classes=2)
text = json.dumps(manifest, sort_keys=True).encode()
open("old.rvgc", "wb").write(blob[:4] + struct.pack("<I", len(text)) + text + blob[8 + length:])
# a whole checkpoint cut inside its manifest, as an interrupted copy leaves it
open("cut.rvgc", "wb").write(blob[:8 + length // 2])
'

# each case: the exit code it must give, then the arguments
for case in "3 simulate missing.jsonl" "1 --config . gradcheck" "3 simulate m.jsonl" \
            "3 train torn.jsonl" "3 train rows.jsonl" "3 train v1.jsonl" "3 train lines.jsonl" \
            "3 train gid.jsonl" "3 extract stages.jsonl" \
            "1 --config deep.json gradcheck" "3 train deep.jsonl" \
            "1 --seed -1 gradcheck" "1 --jobs 0 gradcheck" "1 --seed 0 gradcheck --eps 0" \
            "1 --jobs 3 gradcheck" "1 --jobs 2 evaluate m.jsonl --checkpoint bad.rvgc" \
            "1 --config t0.json gradcheck" "1 --config modle.json gradcheck" \
            "1 --config nourl.json gradcheck" \
            "1 --seed 0 gradcheck --samples -1" "1 --seed 0 gradcheck --threshold nan" \
            "3 evaluate m.jsonl --checkpoint bad.rvgc" "3 evaluate m.jsonl --checkpoint deep.rvgc" \
            "3 evaluate m.jsonl --checkpoint old.rvgc" "3 build-graph x.jsonl" \
            "3 evaluate m.jsonl --checkpoint cut.rvgc" "3 simulate list.jsonl" \
            "3 simulate nul.jsonl" \
            "1 --ablation no_rar evaluate m.jsonl --checkpoint bad.rvgc" \
            "1 evaluate m.jsonl --checkpoint bad.rvgc --ablation no_rar" \
            "1 --force train w.jsonl" "1 train w.jsonl --force"; do
  set -- $case
  want=$1
  shift
  code=0
  reviewgraph "$@" 2> stderr.txt || code=$?
  cat stderr.txt
  if [ "$code" -ne "$want" ] || grep -q Traceback stderr.txt; then
    echo "reviewgraph $*: exit $code, expected $want without a traceback"
    exit 1
  fi
done

# a graph, cache or transcript of an older form or version also names the
# whole command to rerun, and that command, run as printed, rewrites it
for case in "rows.jsonl train build-graph" "v1.jsonl train build-graph" \
            "lines.jsonl train embed" "stages.jsonl extract simulate"; do
  set -- $case
  reviewgraph "$2" "$1" 2> stderr.txt || true
  hint=$(sed -n 's/.*; rerun `\(.*\)`$/\1/p' stderr.txt)
  if [ "$hint" != "reviewgraph $3 --force $1" ]; then
    echo "reviewgraph $2 $1: names \"$hint\", not reviewgraph $3 --force $1, to rerun"
    exit 1
  fi
  code=0
  eval "$hint" || code=$?
  if [ "$code" -ne 0 ]; then
    echo "$hint: exit $code, expected 0"
    exit 1
  fi
done
# the rewritten transcript extracts
reviewgraph extract stages.jsonl

# a broken checkpoint's error names its file
for checkpoint in bad old cut; do
  reviewgraph evaluate m.jsonl --checkpoint "$checkpoint.rvgc" 2> stderr.txt || true
  if ! grep -q "$checkpoint\.rvgc" stderr.txt; then
    echo "reviewgraph evaluate --checkpoint $checkpoint.rvgc: the error does not name the file"
    exit 1
  fi
done

# a paper_id that holds U+2028 unescaped, as JSON written with ensure_ascii=False
# has it, is one record: JSON Lines ends a record at a newline only
python3 -c 'import json, sys; sys.stdout.buffer.write(json.dumps({"paper_id": "u\u2028x", "split": "train", "label": "accept", "paths": {"paper": "d0.json", "transcript": "u0.transcript.json"}}, ensure_ascii=False).encode() + b"\n")' > u2028.jsonl
reviewgraph --jobs 4 simulate u2028.jsonl
if [ ! -s u0.transcript.json ]; then
  echo "reviewgraph --jobs 4 simulate u2028.jsonl: no transcript written"
  exit 1
fi
