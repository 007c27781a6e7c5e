#!/usr/bin/env bash
#
# Bit-identity check for shot-engine changes: pipes one request file
# through two qassertd binaries (say, built at a parent commit and at a
# change) and requires identical responses.
#
# The requests cover every backend (auto, statevector, density_matrix,
# stabilizer, mps), three noise settings (none, melbourne = Kraus +
# readout, depolarizing = Pauli), 1 and 3 shot threads, and these
# circuit shapes: terminal-only (GHZ, dense u3, measured subset, a 3q
# gate), mid-circuit measure and reset (Clifford and non-Clifford), a
# gate after a measurement, a measurement-free circuit, a slotted
# AssertedProgram (assert_clbits), and auto-asserted jobs. Requests a
# backend cannot run come back as typed errors and are compared too.
#
# Before comparing, the wall-clock fields (queue_ms, exec_ms) and the
# " [file.cpp:line]" source location of error messages are stripped;
# everything else, and the job and per-backend counters of the metrics
# summary qassertd logs at shutdown, must match byte for byte. Prints
# one sha256 digest per binary and exits 1 when they differ.
#
# Usage: scripts/backend_identity.sh OLD_QASSERTD NEW_QASSERTD
set -euo pipefail

if [[ $# -ne 2 || ! -x "$1" || ! -x "$2" ]]; then
    echo "usage: $0 OLD_QASSERTD NEW_QASSERTD" >&2
    exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

python3 - > "$workdir/requests.ndjson" <<'EOF'
import json

head = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

def qasm(qubits, clbits, body):
    return head + 'qreg q[%d];\ncreg c[%d];\n%s' % (qubits, clbits, body)

def measures(pairs):
    return ''.join('measure q[%d] -> c[%d];\n' % p for p in pairs)

circuits = {
    'ghz4': qasm(4, 4, 'h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n'
                 'cx q[2],q[3];\nbarrier q[0],q[1],q[2],q[3];\n'
                 + measures((i, i) for i in range(4))),
    'clifford_mid': qasm(3, 3, 'h q[0];\ncx q[0],q[1];\n'
                         'measure q[0] -> c[0];\nreset q[0];\nh q[0];\n'
                         's q[1];\ncx q[0],q[2];\n'
                         + measures((i, i) for i in range(3))),
    't_mid': qasm(4, 4, 'h q[0];\nt q[0];\ncx q[0],q[1];\nrx(0.7) q[2];\n'
                  'measure q[1] -> c[1];\nreset q[1];\nh q[1];\nt q[1];\n'
                  'cx q[1],q[3];\ncx q[2],q[3];\n'
                  + measures((i, i) for i in range(4))),
    'u3_terminal': qasm(5, 5, 'u3(0.3,1.1,0.2) q[0];\nu3(1.3,0.1,2.2) q[1];\n'
                        'rx(0.4) q[2];\nry(1.4) q[3];\nh q[4];\n'
                        'cx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n'
                        'cx q[3],q[4];\nt q[4];\ncx q[4],q[0];\n'
                        + measures((i, i) for i in range(5))),
    'subset': qasm(3, 2, 'h q[0];\ncx q[0],q[1];\nry(0.9) q[2];\n'
                   + measures([(2, 0), (1, 1)])),
    'ccx': qasm(4, 4, 'h q[0];\nh q[1];\nccx q[0],q[1],q[2];\nt q[2];\n'
                'cx q[2],q[3];\n' + measures((i, i) for i in range(4))),
    'no_measure': qasm(2, 2, 'h q[0];\ncx q[0],q[1];\n'),
    'gate_after_measure': qasm(3, 3, 'h q[0];\ncx q[0],q[1];\n'
                               'measure q[0] -> c[0];\ncx q[1],q[2];\n'
                               + measures([(1, 1), (2, 2)])),
    # Bell pair with a parity ancilla measured into slot clbit c[2].
    'slotted': qasm(3, 3, 'h q[0];\ncx q[0],q[1];\ncx q[0],q[2];\n'
                    'cx q[1],q[2];\nmeasure q[2] -> c[2];\nreset q[2];\n'
                    + measures([(0, 0), (1, 1)])),
}
noises = [None, 'melbourne', {'kind': 'depolarizing', 'p1': 0.01, 'p2': 0.03}]
backends = ['auto', 'statevector', 'density_matrix', 'stabilizer', 'mps']

n = 0
for name, text in circuits.items():
    for ni, noise in enumerate(noises):
        for backend in backends:
            for threads in (1, 3):
                req = {'id': '%s/%d/%s/%d' % (name, ni, backend, threads),
                       'qasm': text, 'shots': 500, 'seed': 11 + n,
                       'backend': backend, 'threads': threads,
                       'cache': False}
                if noise is not None:
                    req['noise'] = noise
                if name == 'slotted':
                    req['assert_clbits'] = [[2]]
                print(json.dumps(req))
                n += 1
for backend in ['auto', 'statevector', 'stabilizer', 'mps']:
    for ni, noise in enumerate(noises):
        req = {'id': 'auto_assert/%d/%s' % (ni, backend),
               'qasm': circuits['ghz4'], 'shots': 400, 'seed': 11 + n,
               'backend': backend, 'auto_assert': True, 'cache': False}
        if noise is not None:
            req['noise'] = noise
        print(json.dumps(req))
        n += 1
print(json.dumps({'op': 'shutdown'}))
EOF

# The responses plus the shutdown metrics counters qassertd logs to
# stderr (MetricsSnapshot::str(); its latency lines are wall-clock).
digest() {
    {
        "$1" --workers 2 < "$workdir/requests.ndjson" 2> "$2.err" \
            | sed -E -e 's/"(queue_ms|exec_ms)":[-0-9.eE+]+/"\1":_/g' \
                     -e 's/ \[[^]]*\.(cpp|hpp):[0-9]+\]//g'
        grep -E '^  (jobs|resilience|cache|backends):' "$2.err"
    } | LC_ALL=C sort > "$2"
    sha256sum < "$2" | cut -d' ' -f1
}

old="$(digest "$1" "$workdir/old.out")"
new="$(digest "$2" "$workdir/new.out")"
echo "lines compared: $(wc -l < "$workdir/new.out")"
echo "old: $old"
echo "new: $new"
if [[ "$old" != "$new" ]]; then
    diff "$workdir/old.out" "$workdir/new.out" | head -20 >&2
    exit 1
fi
