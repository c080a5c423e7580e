package memcached

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// TestCalibrationQuotesDispatchCost holds CALIBRATION.md's quote of the
// sockets path's dispatch constant to the constant.
func TestCalibrationQuotesDispatchCost(t *testing.T) {
	src, err := os.ReadFile("../../CALIBRATION.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(string(src)), " ")
	m := regexp.MustCompile("`dispatchCost` constant, ([0-9]+) µs").FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("CALIBRATION.md no longer quotes the `dispatchCost` constant")
	}
	us, _ := strconv.Atoi(m[1])
	if got := simnet.Duration(us) * simnet.Microsecond; got != dispatchCost {
		t.Errorf("CALIBRATION.md quotes dispatchCost as %v, the constant is %v", got, dispatchCost)
	}
}
