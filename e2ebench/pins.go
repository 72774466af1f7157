package main

// pins holds the expected unit digests per workload and seed. Seed 1 is
// the development seed; the second seed of each workload is held out, so
// a later claim can be re-checked on a seed nobody tuned against. Index i is the digest of input i: every campaign sweep is
// input 0, fuzz run i is input i mod fuzzInputs and raft replay i is
// variant i mod raftInputs. The GMP verdicts do not depend on the world
// seed (the links have no random loss), so both campaign seeds pin the
// same digest.
var pins = map[string]map[int64][]string{
	"campaign-gmp": {
		1: {
			"c813ef9e1b4ddab5",
		},
		20261017: {
			"c813ef9e1b4ddab5",
		},
	},
	"fuzz": {
		1: {
			"46270379011cd8d8/silent-corruption",
			"4ac39a5a9147af38/exec-error,silent-corruption",
			"acbed1afd97d276f/silent-corruption",
			"da405392973b8f26/silent-corruption",
			"682fdd9e33b0f5d9/silent-corruption",
			"58c1f4a253b3b566/silent-corruption",
			"13ac3797d933b534/silent-corruption",
			"d1269317f3e51c48/silent-corruption",
			"2f40cf80494e2e38/silent-corruption",
			"bdad8f8bb32a107f/silent-corruption",
			"29de8485496ed59e/silent-corruption",
			"19d349add9c92852/silent-corruption",
			"cac3ce257d170e5b/silent-corruption",
			"acd648c7f8510e7a/silent-corruption",
			"81355be49beae831/silent-corruption",
			"91ecb0d6f234378a/silent-corruption",
		},
		20261017: {
			"ada3815f4554fd3f/exec-error,silent-corruption",
			"364f24e43729efb7/silent-corruption",
			"1c6b7435b24d5e7b/silent-corruption",
			"c98c25b921f1c932/silent-corruption",
			"04e699c751203478/silent-corruption",
			"e96c46df4e554683/silent-corruption",
			"4015f829971bc2ab/silent-corruption",
			"d375956615e738b3/silent-corruption",
			"ec562a0ee479f391/silent-corruption",
			"17283bc3de81fe4a/silent-corruption",
			"a3782a09290c9a92/silent-corruption",
			"033f5744ef173a6b/silent-corruption",
			"c74ceb79f21d7f0b/silent-corruption",
			"af15e8ac0c99f5ed/silent-corruption",
			"5ba774808117c792/silent-corruption",
			"275bde5012509c3c/silent-corruption",
		},
	},
	"raft-1000": {
		1: {
			"c84a38c8cff3f9d7",
			"3d41bbde60529752",
			"6f9b42e5e81b4808",
			"8b5854e96d635666",
			"5f419d171c51a3bd",
			"3ac2239fdbdf2352",
			"d20c4556c62a2c3f",
			"025e8a8e0c9403e2",
		},
		20261017: {
			"b85839ea35c86b03",
			"cb8243cce3f2556a",
			"d65533d24f148a4c",
			"bb531a90c060d2b7",
			"9d334f0104366009",
			"ed849866c473eb4d",
			"6a79e30074031667",
			"1623ae7791cafbc7",
		},
	},
}
