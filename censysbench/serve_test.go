package main

import (
	"strings"
	"testing"
)

func TestBuildRequestsMixAndDeterminism(t *testing.T) {
	addrs := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5"}
	a := buildRequests(42, addrs, 10000)
	b := buildRequests(42, addrs, 10000)
	if len(a) != 10000 {
		t.Fatalf("%d requests, want 10000", len(a))
	}
	classes := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between builds with one seed: %+v vs %+v", i, a[i], b[i])
		}
		classes[a[i].class]++
		if a[i].class == "lookup" && !strings.HasPrefix(a[i].url, "/v2/hosts/"+a[i].ip) {
			t.Errorf("lookup %q does not name its host %q", a[i].url, a[i].ip)
		}
	}
	for class, want := range map[string]int{"lookup": 7000, "search": 2000, "export": 1000} {
		if got := classes[class]; got < want*9/10 || got > want*11/10 {
			t.Errorf("%d %s requests, want about %d", got, class, want)
		}
	}
	if c := buildRequests(43, addrs, 100); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("another seed drew the same requests")
	}
}

func TestCheckResponse(t *testing.T) {
	lookup := request{url: "/v2/hosts/10.0.0.1", class: "lookup", ip: "10.0.0.1"}
	history := request{url: "/v2/hosts/10.0.0.1/history", class: "lookup", ip: "10.0.0.1"}
	search := request{url: "/v2/hosts/search?q=x", class: "search"}
	for _, tc := range []struct {
		rq   request
		code int
		body string
		ok   bool
	}{
		{lookup, 200, `{"ip":"10.0.0.1","services":{}}`, true},
		{lookup, 200, `{"ip":"10.0.0.2"}`, false},
		{lookup, 404, `{"error":"host not found"}`, false},
		{lookup, 200, `{"ip":"10.0.0.1"`, false},
		{history, 200, `[{"seq":1}]`, true},
		{history, 200, `[{"seq":1}`, false},
		{search, 200, `{"total":0,"hosts":[]}`, true},
		{search, 503, `{"error":"overloaded"}`, false},
		{search, 200, `{"total":`, false},
	} {
		err := checkResponse(tc.rq, tc.code, []byte(tc.body))
		if (err == nil) != tc.ok {
			t.Errorf("checkResponse(%s, %d, %s) = %v, want ok=%v", tc.rq.url, tc.code, tc.body, err, tc.ok)
		}
	}
}
