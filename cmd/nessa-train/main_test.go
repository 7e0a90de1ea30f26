package main

import (
	"reflect"
	"testing"

	"nessa"
)

// TestParseCluster: every -parity / -kill value that would build a
// cluster too large to simulate, or arm a kill that can never fire, is
// rejected before a drive is built.
func TestParseCluster(t *testing.T) {
	cases := []struct {
		parity, kill string
		spare        bool
		place        nessa.Placement
		kills        []nessa.DeviceKill
		ok           bool
	}{
		{"", "", false, nessa.Placement{}, nil, true},
		{"3+1", "", false, nessa.Placement{DataShards: 3, ParityShards: 1}, nil, true},
		{"3+0", "", false, nessa.Placement{DataShards: 3}, nil, true},
		{"255+0", "", false, nessa.Placement{DataShards: 255}, nil, true},
		{"3+1", "1@3", false, nessa.Placement{DataShards: 3, ParityShards: 1}, []nessa.DeviceKill{{Device: 1, AfterScans: 3}}, true},
		{"3+1", "3@1", false, nessa.Placement{DataShards: 3, ParityShards: 1}, []nessa.DeviceKill{{Device: 3, AfterScans: 1}}, true},
		{"3+1", "4@2", true, nessa.Placement{DataShards: 3, ParityShards: 1}, []nessa.DeviceKill{{Device: 4, AfterScans: 2}}, true},

		{"x", "", false, nessa.Placement{}, nil, false},
		{"3+1x", "", false, nessa.Placement{}, nil, false},
		{"0+1", "", false, nessa.Placement{}, nil, false},
		{"-2+3", "", false, nessa.Placement{}, nil, false},
		{"3+-1", "", false, nessa.Placement{}, nil, false},
		{"200+56", "", false, nessa.Placement{}, nil, false},
		{"2000000000+0", "", false, nessa.Placement{}, nil, false},
		{"9223372036854775807+9223372036854775807", "", false, nessa.Placement{}, nil, false},
		{"", "1@3", false, nessa.Placement{}, nil, false},
		{"", "", true, nessa.Placement{}, nil, false},
		{"3+1", "1", false, nessa.Placement{}, nil, false},
		{"3+1", "1@3,2@5", false, nessa.Placement{}, nil, false},
		{"3+1", "1@0", false, nessa.Placement{}, nil, false},
		{"3+1", "1@-3", false, nessa.Placement{}, nil, false},
		{"3+1", "9@3", false, nessa.Placement{}, nil, false},
		{"3+1", "4@3", false, nessa.Placement{}, nil, false},
		{"3+1", "5@3", true, nessa.Placement{}, nil, false},
		{"3+1", "-1@3", false, nessa.Placement{}, nil, false},
	}
	for _, tc := range cases {
		place, kills, err := parseCluster(tc.parity, tc.kill, tc.spare)
		if (err == nil) != tc.ok {
			t.Errorf("parseCluster(%q, %q, %v): err = %v, want ok=%v", tc.parity, tc.kill, tc.spare, err, tc.ok)
			continue
		}
		if tc.ok && (place != tc.place || !reflect.DeepEqual(kills, tc.kills)) {
			t.Errorf("parseCluster(%q, %q, %v) = %+v, %+v; want %+v, %+v",
				tc.parity, tc.kill, tc.spare, place, kills, tc.place, tc.kills)
		}
	}
}
