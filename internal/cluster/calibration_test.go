package cluster

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// TestCalibrationQuotesProfiles holds CALIBRATION.md to the profiles:
// every profile number it quotes is the field's value, rounded to the
// digits the quote gives. Rewording a quote means rewording its pattern
// here; changing a profile value means changing the quote.
func TestCalibrationQuotesProfiles(t *testing.T) {
	doc := calibrationDoc(t)
	a, b := ClusterA(), ClusterB()
	for _, q := range []struct {
		pattern string    // its one group is the quoted number
		values  []float64 // each must read as the quote, in its unit
	}{
		{`DDR ([0-9.]+) GB/s`, []float64{a.IB.LinkBytesPerSec / 1e9}},
		{`QDR ([0-9.]+) GB/s`, []float64{b.IB.LinkBytesPerSec / 1e9}},
		{`10GigE ([0-9.]+) GB/s`, []float64{a.eth10G.LinkBytesPerSec / 1e9}},
		{`\b1GigE ([0-9.]+) GB/s`, []float64{a.eth1G.LinkBytesPerSec / 1e9}},
		{"QDR's `RecvProc` of ([0-9.]+) ns", []float64{float64(b.HCA.RecvProc)}},
		{"DDR's `RecvProc` of ([0-9.]+) µs", []float64{float64(a.HCA.RecvProc) / float64(simnet.Microsecond)}},
		{`≈ ([0-9.]+) M msgs/s`, []float64{1e3 / float64(b.HCA.RecvProc)}},
		{`≈ ([0-9.]+) K msgs/s`, []float64{1e6 / float64(a.HCA.RecvProc)}},
		{"`EagerThreshold` ([0-9.]+) KB on both clusters", []float64{
			float64(a.UCR.EagerThreshold) / 1024, float64(b.UCR.EagerThreshold) / 1024}},
	} {
		quoted := quotedNumber(t, doc, q.pattern)
		for _, v := range q.values {
			if !readsAs(v, quoted) {
				t.Errorf("CALIBRATION.md quotes %q as %s, the profile says %g", q.pattern, quoted, v)
			}
		}
	}
}

// TestCalibrationQuotesSDPJitter checks the quoted shape of cluster B's
// SDP jitter against draws of the profile's jitter function: 1 in n
// segments stalls for a uniform delay up to the quoted bound, so the
// draws above half the bound are a 1/(2n) share and none exceeds it.
func TestCalibrationQuotesSDPJitter(t *testing.T) {
	doc := calibrationDoc(t)
	m := regexp.MustCompile(`1 in ([0-9]+) segments delayed, up to ([0-9]+) µs`).FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("CALIBRATION.md no longer quotes the SDP jitter as `1 in n segments delayed, up to d µs`")
	}
	n, _ := strconv.Atoi(m[1])
	bound, _ := strconv.Atoi(m[2])
	up := simnet.Duration(bound) * simnet.Microsecond

	jitter := ClusterB().sdpModel.Jitter
	r := simnet.NewRand(1)
	const draws = 1 << 17
	var tail int
	var peak simnet.Duration
	for i := 0; i < draws; i++ {
		d := jitter(r)
		peak = max(peak, d)
		if d > up/2 {
			tail++
		}
	}
	if peak > up || peak < up*99/100 {
		t.Errorf("largest of %d SDP jitter draws is %v, CALIBRATION.md says up to %v", draws, peak, up)
	}
	want := 1 / (2 * float64(n))
	if got := float64(tail) / draws; got < want*0.9 || got > want*1.1 {
		t.Errorf("%.4f of SDP jitter draws exceed %v; 1 in %d segments stalling gives %.4f", got, up/2, n, want)
	}
}

// calibrationDoc returns CALIBRATION.md with every run of whitespace,
// line breaks included, as one space.
func calibrationDoc(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../CALIBRATION.md")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(strings.Fields(string(src)), " ")
}

// quotedNumber returns the group of pattern's one match in doc.
func quotedNumber(t *testing.T, doc, pattern string) string {
	t.Helper()
	ms := regexp.MustCompile(pattern).FindAllStringSubmatch(doc, -1)
	if len(ms) != 1 {
		t.Fatalf("CALIBRATION.md matches %q %d times, want once", pattern, len(ms))
	}
	return ms[0][1]
}

// readsAs reports whether v, rounded to as many significant digits as
// the quoted number q has ("550" three, "0.125" three, "1.8" two), is q.
func readsAs(v float64, q string) bool {
	want, err := strconv.ParseFloat(q, 64)
	if err != nil {
		return false
	}
	digits := strings.TrimLeft(strings.ReplaceAll(q, ".", ""), "0")
	got, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', max(len(digits), 1), 64), 64)
	return got == want
}
