.PHONY: all build test check model race clean

all: build

build:
	dune build

test:
	dune runtest

# Build everything, run the test suite, and lint the example IDL.
check:
	dune build @check

# Exhaustively model-check the coherence protocol with crashes enabled
# (also part of `make check`, at 2 clients).
model:
	dune exec bin/iw_check.exe -- --model --crash

# Lock-discipline lint over lib/ and bin/ (LCK001-LCK004), warnings fatal.
race:
	dune exec bin/iw_check.exe -- --race --Werror lib bin

clean:
	dune clean
