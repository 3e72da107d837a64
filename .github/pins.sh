# Every output the CI workflow pins, through the `braidcert` console script.
# Run it with `braidcert` on PATH: `bash .github/pins.sh`.  It reads the
# committed n=3 report and the `pairs` benchmark streams from the checkout
# and writes only to a fresh temp directory, which it removes on exit; it
# exits non-zero at the first check that fails, under the header of that
# check.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

echo "== Importing the installed CLI loads no dataclasses, inspect, fractions or decimal (python -c, the interpreter that runs braidcert)"
python -c 'import sys; before = set(sys.modules); import braidcert.cli; added = {"dataclasses", "inspect", "fractions", "decimal"} & (set(sys.modules) - before); sys.exit(f"import braidcert.cli loaded {sorted(added)}" if added else None)'

echo "== Installed console script verifies the committed n=3 report (entry point and packaged schemas)"
braidcert verify-certificate "$root/perfbench/data/certify_n3.json"

echo "== Certify output is byte-identical (n=3 against the committed report, n=2, n=4 and n=8 against their sha256)"
braidcert certify --n 3 --format json --out n3.json
cmp n3.json "$root/perfbench/data/certify_n3.json"
braidcert certify --n 2 --format json --out n2.json
echo "d86d99ea3d1405d99de6dc628a0e648bc847d86bfc8c9bbae6198a01d200f0c5  n2.json" | sha256sum -c
braidcert certify --n 4 --format json --out n4.json
echo "078d978e819ecfb119cd65a67c43a5b89bbd3bf428ab274b7fe6f62bf70532e9  n4.json" | sha256sum -c
braidcert certify --n 8 --format json --out n8.json
echo "ca98419acab7e7e349f94ab57b624bab49960f13b696f5ea03036c5987e93102  n8.json" | sha256sum -c

echo "== Text-mode certify through the console script (n=3 ends \"all certified\", 8 homotopy and 17 iso entries, exit 0)"
braidcert certify --n 3 > n3.txt
cat n3.txt
test "$(tail -n 1 n3.txt)" = "all certified"
test "$(grep -c '(homotopy)$' n3.txt)" -eq 8
test "$(grep -c '(iso)$' n3.txt)" -eq 17

echo "== Check-relations output is byte-identical (vbB and vbA at n=8 against their sha256)"
braidcert check-relations --n 8 --group vbB --format json --out rel_vbB.json
echo "782bd1a07e4a6beded3bf23d6925f9a28e3b7824df40144aa8df62d98539f4d5  rel_vbB.json" | sha256sum -c
braidcert check-relations --n 8 --group vbA --format json --out rel_vbA.json
echo "f4ec8bb15627e40d4af7dbc8f384924486ce2312628368c55e2cbb08d01f1083  rel_vbA.json" | sha256sum -c

echo "== Distinguish output is byte-identical on a benchmark-length unequal pair (16-letter contexts around s3 z3 vs z3 s3, n=8, JSON and text with --t1, against their sha256)"
u="s0^-1 s3^-1 z6 s2^-1 s6^-1 s6 z4 s4 z1 s1^-1 z4 z1 s4^-1 z7 s0^-1 s4^-1"
v="s7 s4^-1 s4^-1 s0 s7^-1 s7 z5 z7 s3^-1 z0 s3 z7 s7^-1 z1 s4^-1 s5^-1"
braidcert distinguish "$u s3 z3 $v" "$u z3 s3 $v" --n 8 --format json > distinguish.json
echo "8c7dbee8bfa424fba9470b61cfa578dabdfcd1471069802e68bbd1d46be7a702  distinguish.json" | sha256sum -c
braidcert distinguish "$u s3 z3 $v" "$u z3 s3 $v" --n 8 --t1 > distinguish_unequal_t1.txt
echo "af3e3c90bf261c48cd64198944e8ab2a0b8f4bed1ac3dcc1b68c4dd33758a3d7  distinguish_unequal_t1.txt" | sha256sum -c

echo "== Distinguish decides invariant-equal pairs on their cores (relB3 in 32 letters of context, JSON; a welded move in 32 letters of vbA context with --t1, text; n=8, against their sha256)"
u="s0^-1 s3^-1 z6 s2^-1 s6^-1 s6 z4 s4 z1 s1^-1 z4 z1 s4^-1 z7 s0^-1 s4^-1"
v="s7 s4^-1 s4^-1 s0 s7^-1 s7 z5 z7 s3^-1 z0 s3 z7 s7^-1 z1 s4^-1 s5^-1"
braidcert distinguish "$u s0 s1 s0 s1 $v" "$u s1 s0 s1 s0 $v" --n 8 --format json > distinguish_equal.json
echo "7ba912bd582e02af7ece95efe4b6e02d8b56eb94063ab65bd89a9dc63c09aedc  distinguish_equal.json" | sha256sum -c
u="sig3 zet5 sig1^-1 sig7 zet2 sig4^-1 sig6 zet1 sig2 sig5^-1 zet7 sig1 zet3 sig6^-1 sig4 zet6"
v="zet4 sig2^-1 sig7^-1 zet1 sig5 sig3 zet6 sig1 sig4^-1 zet2 sig6 sig2 zet5 sig7 sig3^-1 zet7"
braidcert distinguish "$u zet1 sig2 sig1 $v" "$u sig2 sig1 zet2 $v" --n 8 --group vbA --t1 > distinguish_t1.txt
echo "c3da20091b0d2b05fa099433d8baaebfc13a208e12051ac0ea5204933c81e51f  distinguish_t1.txt" | sha256sum -c

echo "== The n=8 report verifies (140 [ok], exit 0)"
braidcert verify-certificate n8.json > v8.txt
test "$(grep -c '^\[ok\]' v8.txt)" -eq 140

echo "== Certify-pair output is byte-identical on a pair with virtual runs (z0 z2 s1 z2 z1 z1 z1 vs z0 z2 z2 z1 s2 z1 z1, n=3, iso, against its sha256)"
braidcert certify-pair "z0 z2 s1 z2 z1 z1 z1" "z0 z2 z2 z1 s2 z1 z1" --n 3 --format json > runs.json
echo "9019c19fee0fc22c5447cfca4192b8f4001f78e56f0c6ad3fdd3252001b3b1a9  runs.json" | sha256sum -c

echo "== Certify-pair output is byte-identical on relB3 in a braid-letter context (s0 s1 s0 s1 s2 vs s1 s0 s1 s0 s2, n=3, homotopy, against its sha256)"
braidcert certify-pair "s0 s1 s0 s1 s2" "s1 s0 s1 s0 s2" --n 3 --format json > relB3_s2.json
echo "d3c86f646b0ee6ca453848e398060601fa2af797d9961a2b4ed00c49041764f9  relB3_s2.json" | sha256sum -c

echo "== The pairs benchmark's certify-pair requests keep their bytes (the 621 requests of seeds 1-3 in one process, each certificate verified; one sha256 over every exit code, stdout and stderr)"
python "$root/.github/pairs_digest.py" > pairs_digest.txt
cat pairs_digest.txt
test "$(cat pairs_digest.txt)" = "1acaec6f93abd7c0596e5dbb170928be28ac306f993459cced681410206fa917"

echo "== An isomorphism only the weighted-sum probe finds (s0 s0^-1 vs s0^-1 s0, n=2, iso, against its sha256, then [ok])"
braidcert certify-pair "s0 s0^-1" "s0^-1 s0" --n 2 --format json --out swap.json
grep -q '"kind": "iso"' swap.json
echo "f5c87daedbbe1379154fc6898e8bf6fbb4820793806cd870590f2ccbf60574b2  swap.json" | sha256sum -c
braidcert verify-certificate swap.json > swap.txt
cat swap.txt
grep -q '^\[ok\]' swap.txt

echo "== A pair with no certificate ends in NONE on stderr and exit 1 (s1 s2 s1 s2 vs s2 s1 s2 s1, n=3)"
status=0
braidcert certify-pair "s1 s2 s1 s2" "s2 s1 s2 s1" --n 3 2> pair.err || status=$?
test "$status" -eq 1
grep -qx 'NONE: not homotopy equivalent' pair.err

echo "== A pair past the degree bound is not searched (relB3 squared at n=2, 9 degrees, NONE on stderr and exit 1 within 120 s)"
status=0
timeout 120 braidcert certify-pair "s0 s1 s0 s1 s0 s1 s0 s1" "s1 s0 s1 s0 s1 s0 s1 s0" --n 2 2> bound.err || status=$?
cat bound.err
test "$status" -eq 1
grep -qx 'NONE: not searched: the pair spans 9 degrees, above DEGREE_BOUND = 8' bound.err

echo "== Common virtual whiskers (z1 s0 s0^-1 z2 vs z1 z2 is byte-identical against its sha256 and round-trips to [ok]; z0 s1 s2 s1 s2 z1 vs z0 s2 s1 s2 s1 z1 ends in NONE with its reason, exit 1)"
braidcert certify-pair "z1 s0 s0^-1 z2" "z1 z2" --n 3 --format json > whiskered.json
echo "8b7fc1e672c54c3f2cd9fcbc24043bc1134a695aa73c6e28de70827c97f94bf1  whiskered.json" | sha256sum -c
braidcert verify-certificate whiskered.json > whiskered.txt
cat whiskered.txt
grep -q '^\[ok\]' whiskered.txt
status=0
braidcert certify-pair "z0 s1 s2 s1 s2 z1" "z0 s2 s1 s2 s1 z1" --n 3 2> whiskered.err || status=$?
cat whiskered.err
test "$status" -eq 1
grep -q '^NONE' whiskered.err
grep -qx 'NONE: not homotopy equivalent' whiskered.err

echo "== A left-whiskered homotopy at n=2 is byte-identical and round-trips through the console script (z0 s0 s1 s0 s1 vs z0 s1 s0 s1 s0, certify-pair JSON against its sha256, then verify-certificate prints [ok], exit 0)"
braidcert certify-pair "z0 s0 s1 s0 s1" "z0 s1 s0 s1 s0" --n 2 --format json > pair.json
echo "70bc564fb28c984711251c95f72443ee3c2472b661455f903585a9dcc52d334f  pair.json" | sha256sum -c
braidcert verify-certificate pair.json > pair.txt
cat pair.txt
grep -q '^\[ok\]' pair.txt

echo "== A tampered entry is caught with a witness (X0^16 added to entry (0,0) of pair.json's first forward matrix, one [FAIL], exit 1, residual text against its sha256)"
python -c 'import json; c = json.load(open("pair.json")); m = c["forward"][0]["matrix"]; m[0][0] = "X0^16" if m[0][0] == "0" else m[0][0] + " + X0^16"; json.dump(c, open("tampered.json", "w"))'
status=0
braidcert verify-certificate tampered.json > tampered.txt || status=$?
cat tampered.txt
test "$status" -eq 1
test "$(grep -c '^\[FAIL\]' tampered.txt)" -eq 1
grep -Eq '^    degree -?[0-9]+: .* at \(0,0\): .' tampered.txt
echo "aac56ba72e1942aa6c3fb03bfd842f2342ddc7f8deb261ee35bdb0b3e815303d  tampered.txt" | sha256sum -c

echo "== Spellings no printer writes are refused where they stand (entry (0,0) of pair.json's first forward matrix respelled as (1 - sqrt2), then as X with an Arabic-Indic one; one parse error line each, exit 2)"
for k in 0 1; do
    python -c 'import json, sys; c = json.load(open("pair.json")); c["forward"][0]["matrix"][0][0] = ["(1 - sqrt2)", "X\u0661"][int(sys.argv[1])]; json.dump(c, open("respelled.json", "w"))' "$k"
    status=0
    braidcert verify-certificate respelled.json 2> respelled.err || status=$?
    cat respelled.err
    test "$status" -eq 2
    test "$(wc -l < respelled.err)" -eq 1
    grep -Eq "^parse error: certificate 'z0 s0 s1 s0 s1 ~ z0 s1 s0 s1 s0', forward, degree -?[0-9]+, entry \(0,0\): unrecognised factor " respelled.err
done

echo "== Nested parentheses are refused at any depth (entry (0,0) of pair.json's first forward matrix as 1 inside 500 nested parentheses; one parse error line, exit 2)"
python -c 'import json; c = json.load(open("pair.json")); c["forward"][0]["matrix"][0][0] = "(" * 500 + "1" + ")" * 500; json.dump(c, open("nested.json", "w"))'
status=0
braidcert verify-certificate nested.json 2> nested.err || status=$?
cut -c 1-160 nested.err
test "$status" -eq 2
test "$(wc -l < nested.err)" -eq 1
grep -q "^parse error: certificate 'z0 s0 s1 s0 s1 ~ z0 s1 s0 s1 s0', forward, degree -\?[0-9]*, entry (0,0): parenthesis inside a number in parentheses at position 1: " nested.err

echo "== A report must cover its relations (the n=3 report with relB3 deleted, then with relB3's certificate swapped for reid2a[0]'s; a [FAIL] relB3 line each, exit 1)"
for k in 0 1; do
    python -c 'import json, sys; r = json.load(open(sys.argv[1])); by = {e["relation"]: e for e in r["results"]}; e = json.loads(json.dumps(by["reid2a[0]"])); e["relation"] = e["certificate"]["relation"] = "relB3"; i = r["results"].index(by["relB3"]); r["results"][i : i + 1] = [e][: int(sys.argv[2])]; json.dump(r, open("uncovered.json", "w"))' "$root/perfbench/data/certify_n3.json" "$k"
    status=0
    braidcert verify-certificate uncovered.json > uncovered.txt || status=$?
    grep -v '^\[ok\]' uncovered.txt
    test "$status" -eq 1
    grep -q '^\[FAIL\] relB3: ' uncovered.txt
done

echo "== A report entry must say what its certificate says (the n=3 report with relB1[0,2]'s status set to failed; its certificate still verifies, one [FAIL] relB1[0,2] line, exit 1)"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); next(e for e in r["results"] if e["relation"] == "relB1[0,2]")["status"] = "failed"; json.dump(r, open("disagreeing.json", "w"))' "$root/perfbench/data/certify_n3.json"
status=0
braidcert verify-certificate disagreeing.json > disagreeing.txt || status=$?
grep -v '^\[ok\]' disagreeing.txt
test "$status" -eq 1
test "$(grep -c '^\[FAIL\]' disagreeing.txt)" -eq 1
grep -q '^\[FAIL\] relB1\[0,2\]: ' disagreeing.txt

echo "== --n takes ASCII digits only (an Arabic-Indic three is a usage error, exit 2)"
status=0
braidcert distinguish s0 s1 --n "٣" 2> ascii_n.err || status=$?
cat ascii_n.err
test "$status" -eq 2
grep -q 'argument --n: expected ASCII digits' ascii_n.err

echo "== A truncated JSON file is a one-line error that names the file (exit 2)"
head -c 100 pair.json > truncated.json
status=0
braidcert verify-certificate truncated.json 2> truncated.err || status=$?
cat truncated.err
test "$status" -eq 2
test "$(wc -l < truncated.err)" -eq 1
grep -q '^error: truncated.json: ' truncated.err

echo "== A schema error is a one-line error that names the file (the n=3 report with its n removed, exit 2)"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); del r["n"]; json.dump(r, open("no_n.json", "w"))' "$root/perfbench/data/certify_n3.json"
status=0
braidcert verify-certificate no_n.json > no_n.out 2> no_n.err || status=$?
cat no_n.err
test "$status" -eq 2
test ! -s no_n.out
test "$(wc -l < no_n.err)" -eq 1
test "$(cat no_n.err)" = "error: no_n.json: does not match report.schema.json: 'n' is a required property"
