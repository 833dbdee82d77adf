#!/bin/sh
# Print every value a lib/*/*.mli exports that no .ml under lib, bin,
# bench or examples names outside string literals, apart from its own
# definition.
cd "$(dirname "$0")/.." || exit 2
found=0
for mli in lib/*/*.mli; do
  ml=${mli%.mli}.ml
  for v in $(grep -oE "^ *val [a-z_0-9']+" "$mli" | awk '{print $2}' | sort -u); do
    others=$(grep -rlw --include='*.ml' -- "$v" lib bin bench examples | grep -vx "$ml" | wc -l)
    own=$(sed 's/"[^"]*"//g' "$ml" | grep -cw -- "$v")
    if [ "$others" -eq 0 ] && [ "$own" -le 1 ]; then
      echo "$mli: $v"; found=1
    fi
  done
done
exit $found
