package cluster

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/ucr"
)

// TestOptionsLedger ties DESIGN.md's options ledger to the code: every
// exported field of the four structs a deployment is assembled from has
// exactly one row, and no row names a field that does not exist.
// Profile rows are allowed (Profile.OpCost has one) but not required.
func TestOptionsLedger(t *testing.T) {
	required := map[string]reflect.Type{
		"cluster.Options":        reflect.TypeOf(Options{}),
		"memcached.ServerConfig": reflect.TypeOf(memcached.ServerConfig{}),
		"ucr.Config":             reflect.TypeOf(ucr.Config{}),
		"mcclient.Behaviors":     reflect.TypeOf(mcclient.Behaviors{}),
	}
	optional := map[string]reflect.Type{"cluster.Profile": reflect.TypeOf(Profile{})}

	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Client assembly and the options ledger\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "Client assembly and the options ledger" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")

	rowRE := regexp.MustCompile("(?m)^\\| `([a-z]+\\.[A-Za-z]+)\\.([A-Za-z]+)` \\|")
	rows := map[string]int{}
	for _, m := range rowRE.FindAllStringSubmatch(section, -1) {
		typ, field := m[1], m[2]
		rt, known := required[typ]
		if !known {
			rt, known = optional[typ]
		}
		if !known {
			t.Errorf("ledger row %s.%s names a struct the ledger does not cover", typ, field)
			continue
		}
		if f, ok := rt.FieldByName(field); !ok || !f.IsExported() {
			t.Errorf("ledger row %s.%s names no exported field", typ, field)
		}
		if rows[typ+"."+field]++; rows[typ+"."+field] == 2 {
			t.Errorf("%s.%s has more than one ledger row", typ, field)
		}
	}
	for typ, rt := range required {
		for i := 0; i < rt.NumField(); i++ {
			if f := rt.Field(i); f.IsExported() && rows[typ+"."+f.Name] == 0 {
				t.Errorf("%s.%s has no ledger row in DESIGN.md", typ, f.Name)
			}
		}
	}
}
