package main

import (
	"slices"
	"testing"
)

func TestSelectPanels(t *testing.T) {
	var all []string
	for _, p := range panels {
		all = append(all, p.name)
	}
	for _, tc := range []struct {
		spec string
		want []string // nil: the spec must be rejected
	}{
		{"all", all},
		{"15d,12a", []string{"12a", "15d"}}, // print order, not spec order
		{" 12A , 13b ", []string{"12a", "13b"}},
		{"ALL, 14c", all},
		{"12a,13x", nil},
		{"conc", nil}, // deleted off-paper panel
		{"12a,history", nil},
		{"", nil},
	} {
		sel, err := selectPanels(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("selectPanels(%q) accepted, want an error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectPanels(%q): %v", tc.spec, err)
			continue
		}
		var got []string
		for _, p := range sel {
			got = append(got, p.name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("selectPanels(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
}
