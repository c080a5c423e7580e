package cluster

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/sockstream"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// TestOptionsLedger ties the two ledgers to the code: every exported
// field of the structs a Profile or a Deployment is built from has
// exactly one row — the four deployment structs in DESIGN.md's options
// ledger, the five cost-model structs in CALIBRATION.md's cost ledger —
// and no row names a field that does not exist. A row must name a writer
// that is not a test or state why the field stays. Profile rows are
// allowed in DESIGN.md (Profile.OpCost has one) but not required.
func TestOptionsLedger(t *testing.T) {
	for _, l := range []struct {
		doc, section string
		required     map[string]reflect.Type
		optional     map[string]reflect.Type
	}{
		{"DESIGN.md", "Client assembly and the options ledger", map[string]reflect.Type{
			"cluster.Options":        reflect.TypeOf(Options{}),
			"memcached.ServerConfig": reflect.TypeOf(memcached.ServerConfig{}),
			"ucr.Config":             reflect.TypeOf(ucr.Config{}),
			"mcclient.Behaviors":     reflect.TypeOf(mcclient.Behaviors{}),
			"cluster.FleetOptions":   reflect.TypeOf(FleetOptions{}),
		}, map[string]reflect.Type{"cluster.Profile": reflect.TypeOf(Profile{})}},
		{"CALIBRATION.md", "Cost ledger", map[string]reflect.Type{
			"verbs.Config":          reflect.TypeOf(verbs.Config{}),
			"sockstream.Provider":   reflect.TypeOf(sockstream.Provider{}),
			"simnet.FabricSpec":     reflect.TypeOf(simnet.FabricSpec{}),
			"simnet.FaultConfig":    reflect.TypeOf(simnet.FaultConfig{}),
			"memcached.StoreConfig": reflect.TypeOf(memcached.StoreConfig{}),
		}, nil},
	} {
		section := ledgerSection(t, l.doc, l.section)
		rows := map[string]int{}
		for _, m := range ledgerRow.FindAllStringSubmatch(section, -1) {
			typ, field, setBy, why := m[1], m[2], m[3], m[4]
			rt, known := l.required[typ]
			if !known {
				rt, known = l.optional[typ]
			}
			if !known {
				t.Errorf("%s: ledger row %s.%s names a struct the ledger does not cover", l.doc, typ, field)
				continue
			}
			if f, ok := rt.FieldByName(field); !ok || !f.IsExported() {
				t.Errorf("%s: ledger row %s.%s names no exported field", l.doc, typ, field)
			}
			if rows[typ+"."+field]++; rows[typ+"."+field] == 2 {
				t.Errorf("%s: %s.%s has more than one ledger row", l.doc, typ, field)
			}
			if !namesWriter(setBy) && strings.Trim(why, " —") == "" {
				t.Errorf("%s: ledger row %s.%s names no writer outside the tests and no reason to stay", l.doc, typ, field)
			}
		}
		for typ, rt := range l.required {
			for i := 0; i < rt.NumField(); i++ {
				if f := rt.Field(i); f.IsExported() && rows[typ+"."+f.Name] == 0 {
					t.Errorf("%s.%s has no ledger row in %s", typ, f.Name, l.doc)
				}
			}
		}
	}
}

// ledgerRow matches one row: the field, who sets it, why it stays.
var ledgerRow = regexp.MustCompile("(?m)^\\| `([a-z]+\\.[A-Za-z]+)\\.([A-Za-z]+)` \\|([^|\\n]*)\\|([^|\\n]*)\\|$")

// ledgerSection returns the body of the doc's "## title" section.
func ledgerSection(t *testing.T, doc, title string) string {
	t.Helper()
	src, err := os.ReadFile("../../" + doc)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(src), "\n## "+title+"\n")
	if !ok {
		t.Fatalf("%s has no %q section", doc, title)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	return section
}

// namesWriter reports whether a "Set by" cell names, in a code span, a
// writer that is not a test.
func namesWriter(setBy string) bool {
	for _, m := range codeSpan.FindAllStringSubmatch(setBy, -1) {
		if !strings.HasPrefix(m[1], "Test") {
			return true
		}
	}
	return false
}

var codeSpan = regexp.MustCompile("`([^`]+)`")
