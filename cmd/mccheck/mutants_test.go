package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/memcheck"
)

// mutant is one seeded bug the checker must catch: exact source edits
// that break the product in one known way, applied to a build of this
// command with the go toolchain's -overlay, and the mode-table row (and
// fabric) whose sweep must report the violation. The product carries no
// trace of it.
type mutant struct {
	name   string
	mode   string // the memcheck row that catches it (-mode)
	faults bool   // the bug needs a lossy fabric (-faults)
	edits  []edit
}

// edit changes one file, named from the module root: old, which must
// occur exactly once in it, becomes new. With old empty the edit adds
// the file, new being its whole text.
type edit struct{ file, old, new string }

var mutants = []mutant{
	{
		// append/prepend reuse the old item's CAS id instead of drawing
		// a fresh one (breaks CAS sequencing).
		name: "mut_append_nocas", mode: "default",
		edits: []edit{{"internal/memcached/store.go",
			"\tit.expireAt = old.expireAt\n",
			"\tit.expireAt = old.expireAt\n\tit.casID = oldCAS\n"}},
	},
	{
		// Lookups skip the lazy expiry check, serving expired and
		// flushed items as live.
		name: "mut_get_skip_expiry", mode: "default",
		edits: []edit{{"internal/memcached/store.go",
			"if it.expired(now, s.flushBefore) {",
			"if it.expired(now, s.flushBefore) && false {"}},
	},
	{
		// cas stores without comparing the presented id (a stale CAS
		// succeeds).
		name: "mut_cas_ignore_id", mode: "default",
		edits: []edit{{"internal/memcached/store.go",
			"if it.casID != casID {",
			"if it.casID != casID && false {"}},
	},
	{
		// delete reports DELETED but leaves the item linked.
		name: "mut_delete_noop", mode: "default",
		edits: []edit{{"internal/memcached/store.go",
			"\ts.unlink(it, h)\n\treturn true\n",
			"\treturn true\n"}},
	},
	{
		// add overwrites a live entry like set.
		name: "mut_add_clobbers", mode: "default",
		edits: []edit{{"internal/memcached/store.go",
			"kind, gate = RecAdd, s.lookupLive(key, h, now) == nil",
			"kind, gate = RecAdd, true"}},
	},
	{
		// The text-protocol parser zeroes the flags of every storage
		// command: a frontend bug the engine-level model cannot see,
		// caught by the client/server cross-check instead.
		name: "mut_proto_drop_flags", mode: "default",
		edits: []edit{{"internal/memcached/protocol.go",
			"\tres := pc.store.store(op, key, c.flags,",
			"\tc.flags = 0\n\tres := pc.store.store(op, key, c.flags,"}},
	},
	{
		// The one-sided index keeps the old seqlock value when it
		// republishes a key, so a client validating an RDMA-read value
		// against the directory accepts a stale pairing.
		name: "mut_onesided_stale", mode: "onesided",
		edits: []edit{
			{"internal/memcached/onesided.go",
				"\tif slot < 0 {\n\t\t// Full bucket",
				"\treuse := slot >= 0 && binary.LittleEndian.Uint64(x.slotBytes(b, slot)) == h\n\tif slot < 0 {\n\t\t// Full bucket"},
			{"internal/memcached/onesided.go",
				"\tle.PutUint64(sb[8:], 2*it.casID)\n",
				"\tseq := 2 * it.casID\n\tif reuse {\n\t\tseq = le.Uint64(sb[8:])\n\t}\n\tle.PutUint64(sb[8:], seq)\n"},
		},
	},
	{
		// The shared-completion demux hands every third SRQ-fed arrival
		// to another endpoint of the context (the next-higher QPN,
		// wrapping to the lowest, so the misroute replays).
		name: "mut_srq_misroute", mode: "srq",
		edits: []edit{
			{"internal/ucr/context.go",
				"\tc.srqDemux++\n\treturn ep\n",
				"\tc.srqDemux++\n\tif c.srqDemux%3 == 0 {\n\t\tif wrong := c.neighborEndpoint(ep); wrong != nil {\n\t\t\treturn wrong\n\t\t}\n\t}\n\treturn ep\n"},
			{"internal/ucr/mutant_neighbor.go", "", `package ucr

func (c *Context) neighborEndpoint(ep *Endpoint) *Endpoint {
	self := ep.qp.QPN()
	var next, lowest *Endpoint
	for qpn, cand := range c.eps {
		if qpn == self {
			continue
		}
		if lowest == nil || qpn < lowest.qp.QPN() {
			lowest = cand
		}
		if qpn > self && (next == nil || qpn < next.qp.QPN()) {
			next = cand
		}
	}
	if next != nil {
		return next
	}
	return lowest
}
`},
		},
	},
	{
		// The client accepts a late duplicate UD reply (a retransmitted
		// request whose first answer also came) into the live blocking
		// op instead of landing it in scratch: payload and counter both
		// fire, so the op's waiter returns the stale reply as its own.
		// Late duplicates need timeouts, so only a lossy sweep has them.
		name: "mut_ud_dup_ack", mode: "ud", faults: true,
		edits: []edit{
			{"internal/mcclient/ucrtransport.go",
				"\t\t\t\t\top.landing-- // the landing landingBuf handed it is in\n\t\t\t\t}\n\t\t\t\tswitch {\n\t\t\t\tcase op != nil:\n\t\t\t\t\tfn(t, op, hdr, data)\n\t\t\t\tcase t != nil:\n",
				"\t\t\t\t\top.landing--\n\t\t\t\t} else if op == nil && t != nil && id == memcached.AMGetReply {\n\t\t\t\t\tif op = t.dupVictim(ep); op != nil {\n\t\t\t\t\t\top.ctr.MutBump()\n\t\t\t\t\t}\n\t\t\t\t}\n\t\t\t\tswitch {\n\t\t\t\tcase op != nil:\n\t\t\t\t\tfn(t, op, hdr, data)\n\t\t\t\tcase t != nil && t.dupVictim(t.udEP) == nil:\n"},
			{"internal/mcclient/ucrtransport.go",
				"\tcase op == nil:\n\t\treturn t.ctx.Buf(dataLen)\n\t}\n\top.landing++\n",
				"\tcase op != nil:\n\t\top.landing++\n\tcase t.dupVictim(t.udEP) != nil:\n\t\top = t.one.op\n\tdefault:\n\t\treturn t.ctx.Buf(dataLen)\n\t}\n"},
			{"internal/mcclient/mutant_dupvictim.go", "", `package mcclient

import "repro/internal/ucr"

func (t *UCRTransport) dupVictim(ep *ucr.Endpoint) *amOp {
	if ep == nil || t.one.op == nil || t.one.op.ctr == nil {
		return nil
	}
	return t.one.op
}
`},
			{"internal/ucr/mutant_bump.go", "", `package ucr

func (c *Counter) MutBump() { c.val++ }
`},
		},
	},
	{
		// The server RDMA-writes a window-advertising GET/MGET's value
		// into the PREVIOUS write reply's window on the connection (the
		// notify AM is unchanged), so the client reads stale slot bytes.
		name: "mut_wrreply_stale", mode: "wrreply",
		edits: []edit{
			{"internal/memcached/ucrserver.go",
				"\tarena ArmReq\n}",
				"\tarena ArmReq\n\tprevWin ucr.WindowDesc\n}"},
			{"internal/memcached/ucrserver.go",
				"ep.WriteReply(clk, w.reply, r.value, r.win, 0, ctr)",
				"ep.WriteReply(clk, w.reply, r.value, c.writeReplyWin(r.win), 0, ctr)"},
			{"internal/memcached/mutant_wrreply.go", "", `package memcached

import "repro/internal/ucr"

func (c *ucrConn) writeReplyWin(cur ucr.WindowDesc) ucr.WindowDesc {
	prev := c.prevWin
	c.prevWin = cur
	if prev.Len == 0 {
		return cur
	}
	return prev
}
`},
		},
	},
	{
		// Fleet clients route by the ring they saw when built, ignoring
		// every later membership change: ops land on pre-churn owners,
		// closed servers included.
		name: "mut_ring_stale", mode: "fleet",
		edits: []edit{
			{"internal/cluster/fleet.go",
				"\terrBuf   []error\n",
				"\terrBuf   []error\n\tstaleRing *ring.Ring\n"},
			{"internal/cluster/fleet.go",
				"\t\tf.clientNodes = append(f.clientNodes, c.seat.node)\n",
				"\t\tf.clientNodes = append(f.clientNodes, c.seat.node)\n\t\tc.staleRing = f.ring.Clone()\n"},
			{"internal/cluster/fleet.go",
				"\tc.ownerBuf = c.f.appendOwners(c.ownerBuf[:0], key)\n",
				"\tc.ownerBuf = c.staleRing.AppendOwners(c.ownerBuf[:0], key, c.f.replicas)\n"},
		},
	},
	{
		// A fleet write stores to the primary alone, so a primary
		// departure loses the only copy.
		name: "mut_replica_skip", mode: "fleet",
		edits: []edit{{"internal/cluster/fleet.go",
			"\ttrs, res, errs := c.connsFor(owners),",
			"\towners = owners[:1]\n\ttrs, res, errs := c.connsFor(owners),"}},
	},
}

// moduleRoot is where the edits' file names start.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// sources applies m's edits to the tree at root and returns each file
// they touch, by absolute path, with its patched text.
func (m *mutant) sources(root string) (map[string]string, error) {
	out := make(map[string]string)
	for _, e := range m.edits {
		path := filepath.Join(root, e.file)
		text, seen := out[path]
		if !seen {
			b, err := os.ReadFile(path)
			switch {
			case e.old == "" && err == nil:
				return nil, fmt.Errorf("%s: the file to add already exists", e.file)
			case e.old == "":
				if _, err := os.Stat(filepath.Dir(path)); err != nil {
					return nil, fmt.Errorf("%s: no package to add it to: %v", e.file, err)
				}
			case err != nil:
				return nil, err
			}
			text = string(b)
		}
		if e.old == "" {
			out[path] = e.new
			continue
		}
		if e.new == e.old {
			return nil, fmt.Errorf("%s: the edit changes nothing", e.file)
		}
		if n := strings.Count(text, e.old); n != 1 {
			return nil, fmt.Errorf("%s: snippet occurs %d times, want 1:\n%s", e.file, n, e.old)
		}
		out[path] = strings.Replace(text, e.old, e.new, 1)
	}
	return out, nil
}

// TestMutantSnippets: every row names a mode of the table, and every
// edit still applies to the tree — its snippet occurs exactly once, an
// added file is new in an existing package. A product change that moves
// a snippet fails here, naming the row, before any build.
func TestMutantSnippets(t *testing.T) {
	root := moduleRoot(t)
	names := make(map[string]bool)
	for i := range mutants {
		m := &mutants[i]
		if names[m.name] {
			t.Errorf("%s: two rows share the name", m.name)
		}
		names[m.name] = true
		if _, err := memcheck.ModeByName(m.mode); err != nil || m.mode == "" {
			t.Errorf("%s: mode %q is not a row of the mode table", m.name, m.mode)
		}
		if len(m.edits) == 0 {
			t.Errorf("%s: no edit", m.name)
		}
		if _, err := m.sources(root); err != nil {
			t.Errorf("%s: %v", m.name, err)
		}
	}
}

var shrunkHeader = regexp.MustCompile(`shrunk script \((\d+) ops, from (\d+);`)

// TestMutantsCaught builds this command once per row with the row's
// edits overlaid, and demands that a ten-seed sweep of the row's mode
// reports the bug; that the report carries the seed and a replay line
// naming that mode; that the violation shrank to a non-empty script
// strictly shorter than the one generated; and that the shrunk script,
// saved and replayed with -script, still fails.
func TestMutantsCaught(t *testing.T) {
	root := moduleRoot(t)
	for i := range mutants {
		m := &mutants[i]
		t.Run(m.name, func(t *testing.T) {
			srcs, err := m.sources(root)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			overlay := struct{ Replace map[string]string }{make(map[string]string)}
			for path, text := range srcs {
				patched := filepath.Join(dir, strconv.Itoa(len(overlay.Replace))+"_"+filepath.Base(path))
				if err := os.WriteFile(patched, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
				overlay.Replace[path] = patched
			}
			js, err := json.Marshal(overlay)
			if err != nil {
				t.Fatal(err)
			}
			ovl, bin := filepath.Join(dir, "overlay.json"), filepath.Join(dir, "mccheck")
			if err := os.WriteFile(ovl, js, 0o644); err != nil {
				t.Fatal(err)
			}
			build := exec.Command("go", "build", "-overlay", ovl, "-o", bin, "./cmd/mccheck")
			build.Dir = root
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build -overlay: %v\n%s", err, out)
			}

			args := []string{"-mode", m.mode, "-seeds", "10", "-expect-violation"}
			if m.faults {
				args = append(args, "-faults")
			}
			out, code := run(t, exec.Command(bin, args...))
			_, caught, ok := strings.Cut(out, "violation found as expected (mode="+m.mode+" ")
			if code != 0 || !ok {
				t.Fatalf("mccheck %v exited %d, want the bug caught:\n%s", args, code, out)
			}
			caught, _, _ = strings.Cut(caught, ")")
			if !strings.Contains(out, "  mode="+m.mode+" seed=") {
				t.Errorf("report names no seed:\n%s", out)
			}
			_, replay, ok := strings.Cut(out, "  replay: go run ./cmd/mccheck ")
			replay, _, _ = strings.Cut(replay, "\n")
			if !ok || !strings.Contains(" "+replay+" ", " -mode "+m.mode+" ") {
				t.Fatalf("no replay line for -mode %s:\n%s", m.mode, out)
			}
			sub := shrunkHeader.FindStringSubmatch(out)
			if sub == nil {
				t.Fatalf("report has no shrunk script:\n%s", out)
			}
			shrunk, _ := strconv.Atoi(sub[1])
			orig, _ := strconv.Atoi(sub[2])
			if shrunk == 0 || shrunk >= orig {
				t.Errorf("shrunk to %d ops from %d, want 0 < shrunk < original", shrunk, orig)
			}
			t.Logf("caught by -mode %s -faults=%v at %s; shrunk %d -> %d ops", m.mode, m.faults, caught, orig, shrunk)
			var script strings.Builder
			_, body, _ := strings.Cut(out, sub[0])
			for _, line := range strings.Split(body, "\n")[1:] {
				text, indented := strings.CutPrefix(line, "    ")
				if !indented {
					break
				}
				script.WriteString(text + "\n")
			}
			if script.Len() == 0 {
				t.Fatalf("shrunk script is empty:\n%s", out)
			}
			file := filepath.Join(dir, "shrunk.txt")
			if err := os.WriteFile(file, []byte(script.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			args = append(strings.Fields(replay), "-script", file, "-expect-violation")
			if out, code := run(t, exec.Command(bin, args...)); code != 0 {
				t.Errorf("the shrunk script no longer fails (mccheck %v exited %d):\n%s", args, code, out)
			}
		})
	}
}
